//go:build amd64 && !race

package errbound

// acceptF32 is tier 0 over whole blocks in SSE2 (accept_amd64.s), the amd64
// baseline: it returns what acceptF32Go returns, on every input. It trusts
// len(b) ≥ len(a), and it cannot be preempted, so scanF32 slices both sides
// before the call and hands it at most acceptSpan bytes at a time. Under
// -race the Go loop runs instead: the detector does not see assembly reads.
//
//go:noescape
func acceptF32(acc int32, a, b []byte, off int) int
