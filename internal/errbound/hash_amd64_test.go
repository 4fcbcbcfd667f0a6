//go:build amd64 && !race

package errbound

import "testing"

// TestWideOK holds the wide kernel's CPU check to its table: a wrong yes is
// a SIGILL, or zmm and opmask registers an OS does not save, in some VM.
func TestWideOK(t *testing.T) {
	const (
		osxsave = 1 << 27
		f, dq   = 1 << 16, 1 << 17
		xcr0    = 0xe6 // SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	)
	for _, c := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             bool
	}{
		{"everything", osxsave, f | dq, xcr0, true},
		{"everything, and every other bit", ^uint32(0), ^uint32(0), ^uint32(0), true},
		{"no OSXSAVE", 0, f | dq, xcr0, false},
		{"no OSXSAVE, XCR0 not read", ^uint32(0) &^ osxsave, f | dq, 0, false},
		{"XCR0 without opmask", osxsave, f | dq, xcr0 &^ (1 << 5), false},
		{"XCR0 without ZMM_Hi256", osxsave, f | dq, xcr0 &^ (1 << 6), false},
		{"XCR0 without Hi16_ZMM", osxsave, f | dq, xcr0 &^ (1 << 7), false},
		{"XCR0 with AVX only", osxsave, f | dq, 0x7, false},
		{"XCR0 without SSE", osxsave, f | dq, xcr0 &^ (1 << 1), false},
		{"F without DQ", osxsave, f, xcr0, false},
		{"DQ without F", osxsave, dq, xcr0, false},
		{"no AVX-512", osxsave, ^uint32(0) &^ (f | dq), xcr0, false},
	} {
		if got := wideOK(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: wideOK(%#x, %#x, %#x) = %v", c.name, c.ecx1, c.ebx7, c.xcr0, got)
		}
	}
	t.Logf("this CPU: wide kernel %v, pair kernel %v", wideF32, pairF32)
}
