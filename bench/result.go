package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/murmur3"
)

// stamp is the environment block of a result file, after "Self-Verifying
// Measurement Records": what ran, where, on which inputs.
type stamp struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	CPUModel    string `json:"cpu_model,omitempty"`
	Kernel      string `json:"kernel,omitempty"`
	GitHead     string `json:"git_head,omitempty"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Smoke       bool   `json:"smoke,omitempty"`
}

func newStamp(ctx context.Context, e *env, seconds int) stamp {
	st := stamp{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  e.procs,
		NProc:       runtime.NumCPU(),
		Seed:        e.seed,
		Seconds:     seconds,
		Smoke:       e.smoke,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(data))
	}
	// A checkout that is not a git repository simply has no head.
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = e.modRoot
	if out, err := cmd.Output(); err == nil {
		st.GitHead = strings.TrimSpace(string(out))
	}
	return st
}

// resultFile is the document `go run ./bench` writes: the stamp, one
// entry per back-to-back run, and a digest over both so that an edited
// file no longer verifies.
type resultFile struct {
	Stamp stamp               `json:"stamp"`
	Runs  [][]*workloadResult `json:"runs"`
	// RecordDigest is the murmur3 digest of the document serialised with
	// this field empty.
	RecordDigest string `json:"record_digest"`
}

// seal computes the record digest over the rest of the document.
func (r *resultFile) seal() (string, error) {
	c := *r
	c.RecordDigest = ""
	data, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return murmur3.SumDigest(data, murmur3.Digest{}).String(), nil
}

func (r *resultFile) write(path string) error {
	d, err := r.seal()
	if err != nil {
		return err
	}
	r.RecordDigest = d
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want, err := r.seal()
	if err != nil {
		return nil, err
	}
	if r.RecordDigest != want {
		return nil, fmt.Errorf("%s: record digest %s does not match its content (%s): the file was edited or truncated", path, r.RecordDigest, want)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &r, nil
}

// printResult prints every metric of one workload by name with its unit.
func printResult(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "\n%s  (%d clients, %d bytes/op, inputs %s)\n", res.Name, res.Clients, res.BytesPerOp, res.InputDigest)
	fmt.Fprintf(w, "  %-34s %14d ops\n", "ops", res.Ops)
	fmt.Fprintf(w, "  %-34s %14d of %d attempted\n", "failed", res.Failed, res.Attempted)
	fmt.Fprintf(w, "  %-34s %14.4f (times below are multiplied by it)\n", "speed_scale", res.SpeedScale)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.name, res.EndToEnd[m.name], m.unit)
	}
	if res.PerLayer == nil {
		return
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "    %-32s %14.4f %s\n", m.name, res.PerLayer[m.name], m.unit)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

// driverLine is the one-line JSON object a single-workload run ends with.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverJSON renders the result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func driverJSON(res *workloadResult, traced bool) ([]byte, error) {
	defs, vals := endToEnd, res.EndToEnd
	if traced {
		defs, vals = perLayer, res.PerLayer
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]driverValue, len(defs))}
	for _, m := range defs {
		line.Metrics[m.name] = driverValue{Value: vals[m.name], Unit: m.unit}
	}
	return json.Marshal(line)
}
