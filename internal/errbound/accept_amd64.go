//go:build amd64 && !race

package errbound

// flagF32 is flagF32Go in SSE2 (accept_amd64.s). It trusts len(b) ≥ len(a)
// and cannot be preempted: scanF32 slices both sides and hands it at most
// acceptSpan bytes. Under -race the Go loop runs: the detector cannot see it.
//
//go:noescape
func flagF32(acc int32, a, b []byte, off int, list []uint64) (n, next int)
