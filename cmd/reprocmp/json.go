package main

import (
	"encoding/json"
	"io"

	"repro"
)

// jsonResult is the machine-readable form of a comparison, for CI
// integration (the paper's §5 use case): its account as it is, and what
// the account cannot say.
type jsonResult struct {
	Method         string          `json:"method"`
	Identical      bool            `json:"identical"`
	TotalElements  int64           `json:"totalElements"`
	FalsePositives int             `json:"falsePositiveChunks"`
	WallMicros     int64           `json:"wallMicros"`
	VirtualMicros  int64           `json:"virtualMicros"`
	ModelGBps      float64         `json:"modelGBps"`
	Fields         []jsonFieldDiff `json:"fields,omitempty"`
	*repro.Account
}

type jsonFieldDiff struct {
	Field   string  `json:"field"`
	Count   int     `json:"count"`
	First   int64   `json:"first"`
	Last    int64   `json:"last"`
	Indices []int64 `json:"indices,omitempty"`
}

// jsonHistory is the machine-readable form of a history comparison.
type jsonHistory struct {
	RunA            string     `json:"runA"`
	RunB            string     `json:"runB"`
	Method          string     `json:"method"`
	Epsilon         float64    `json:"epsilon"`
	Reproducible    bool       `json:"reproducible"`
	Degraded        bool       `json:"degraded,omitempty"`
	FirstDivergence *jsonPair  `json:"firstDivergence,omitempty"`
	Pairs           []jsonPair `json:"pairs"`
}

// jsonPair is one aligned pair of a history: where it is, and its account.
type jsonPair struct {
	Iteration int `json:"iteration"`
	Rank      int `json:"rank"`
	*repro.Account
}

func toJSONResult(res *repro.Result, verbose bool) jsonResult {
	out := jsonResult{
		Method:         res.Method,
		Identical:      res.Identical(),
		TotalElements:  res.TotalElements,
		FalsePositives: res.FalsePositiveChunks(),
		WallMicros:     res.WallElapsed().Microseconds(),
		VirtualMicros:  res.VirtualElapsed().Microseconds(),
		ModelGBps:      res.ThroughputGBps(),
		Account:        &res.Account,
	}
	for _, d := range res.Diffs {
		fd := jsonFieldDiff{
			Field: d.Field,
			Count: len(d.Indices),
			First: d.Indices[0],
			Last:  d.Indices[len(d.Indices)-1],
		}
		if verbose {
			fd.Indices = d.Indices
		}
		out.Fields = append(out.Fields, fd)
	}
	return out
}

func toJSONHistory(report *repro.HistoryReport, method repro.Method, eps float64) jsonHistory {
	out := jsonHistory{
		RunA:         report.RunA,
		RunB:         report.RunB,
		Method:       method.String(),
		Epsilon:      eps,
		Reproducible: report.Reproducible(),
		Degraded:     report.Degraded(),
	}
	pair := func(p *repro.PairReport) jsonPair {
		return jsonPair{Iteration: p.Iteration, Rank: p.Rank, Account: &p.Result.Account}
	}
	for i := range report.Pairs {
		out.Pairs = append(out.Pairs, pair(&report.Pairs[i]))
	}
	if fd := report.FirstDivergence; fd != nil {
		first := pair(fd)
		out.FirstDivergence = &first
	}
	return out
}

func emitJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
