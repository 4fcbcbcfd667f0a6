package service

import "repro/internal/compare"

// Verdict is a comparison outcome on the reprocmp exit-code contract:
// the numeric values ARE the CLI exit codes, so the daemon and the CLI
// speak one language. Divergence wins over degradation (a proven
// divergence is conclusive even on a degraded path); a degraded clean
// verdict is inconclusive, never clean.
type Verdict int

// Verdicts, by exit code.
const (
	// VerdictClean: runs match within ε on a fully verified path.
	VerdictClean Verdict = 0
	// VerdictError: the comparison itself failed.
	VerdictError Verdict = 1
	// VerdictDivergent: out-of-bound differences were proven.
	VerdictDivergent Verdict = 2
	// VerdictDegraded: no proven divergence, but parts of the
	// comparison were skipped or unverified — inconclusive.
	VerdictDegraded Verdict = 3
)

// String returns the verdict's wire name.
func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictError:
		return "error"
	case VerdictDivergent:
		return "divergent"
	case VerdictDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// ExitCode returns the reprocmp-contract exit code.
func (v Verdict) ExitCode() int { return int(v) }

// outcome is what one executed submission found — whether it diverged,
// whether it degraded — or its error.
type outcome struct {
	diverged, degraded bool
	err                error
}

// judge maps a comparison's account, or the error it failed with, onto
// the outcome, mirroring reprocmp's compare and group subcommands exactly.
func judge(a *compare.Account, err error) outcome {
	if err != nil || a == nil {
		return outcome{err: err}
	}
	return outcome{diverged: a.DiffCount != 0, degraded: a.Inconclusive()}
}

// verdict folds the outcome on the contract's precedence.
func (o outcome) verdict() Verdict {
	switch {
	case o.err != nil:
		return VerdictError
	case o.diverged:
		return VerdictDivergent
	case o.degraded:
		return VerdictDegraded
	default:
		return VerdictClean
	}
}

// accountOf returns the account of whichever report a comparison
// produced, nil for none.
func accountOf(res *compare.Result, rep *compare.GroupReport) *compare.Account {
	switch {
	case res != nil:
		return &res.Account
	case rep != nil:
		return &rep.Account
	}
	return nil
}

// ResultVerdict maps one pair comparison onto the contract.
func ResultVerdict(res *compare.Result, err error) Verdict {
	return judge(accountOf(res, nil), err).verdict()
}
