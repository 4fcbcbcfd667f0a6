package lint

import "testing"

func TestKernelAllocMake(t *testing.T) {
	src := `package x
func f(exec Executor, n int) {
	exec.For(n, func(i int) {
		buf := make([]byte, 16)
		_ = buf
	})
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src), "4:kernelalloc")
}

func TestKernelAllocNewAndLiterals(t *testing.T) {
	src := `package x
func f(exec Executor, n int) {
	exec.For(n, func(i int) {
		a := new(int)
		b := []int{1, 2}
		c := map[string]int{"a": 1}
		_, _, _ = a, b, c
	})
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src),
		"4:kernelalloc", "5:kernelalloc", "6:kernelalloc")
}

func TestKernelAllocAppendCaptured(t *testing.T) {
	src := `package x
func f(exec Executor, n int) {
	var out []int
	exec.For(n, func(i int) {
		out = append(out, i)
	})
	_ = out
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src), "5:kernelalloc")
}

func TestKernelAllocAppendLocalOK(t *testing.T) {
	// Appending to a slice declared inside the closure is per-iteration
	// local state, not a shared-buffer grow.
	src := `package x
func f(exec Executor, n int) {
	exec.For(n, func(i int) {
		var local []int
		local = append(local, i)
		dst := []int(nil)
		dst = append(dst, i)
	})
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src))
}

func TestKernelAllocFixedArrayOK(t *testing.T) {
	// Fixed-size arrays are stack-allocatable scratch; allocations outside
	// the kernel closure are the fix, not a finding.
	src := `package x
func f(exec Executor, n int) {
	bufs := make([][]byte, n)
	exec.For(n, func(i int) {
		var scratch [16]byte
		v := [4]uint64{1, 2, 3, 4}
		_ = bufs[i]
		_, _ = scratch, v
	})
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src))
}

func TestKernelAllocNestedFor(t *testing.T) {
	// The inner dispatch's closure is reported exactly once (by its own
	// visit), and the clean outer body stays clean.
	src := `package x
func f(exec Executor, n int) {
	exec.For(n, func(i int) {
		exec.For(n, func(j int) {
			s := make([]int, 4)
			_ = s
		})
	})
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src), "5:kernelalloc")
}

func TestKernelAllocNonForCallOK(t *testing.T) {
	// Allocations in ordinary closures (not For kernels) are out of scope.
	src := `package x
func f(run func(int, func(int))) {
	run(8, func(i int) {
		s := make([]int, 4)
		_ = s
	})
	cb := func() []int { return make([]int, 2) }
	_ = cb
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src))
}

func TestKernelAllocSuppression(t *testing.T) {
	src := `package x
func f(exec Executor, n int) {
	exec.For(n, func(i int) {
		//lint:ignore kernelalloc cold path, runs once per field
		s := make([]int, 4)
		_ = s
	})
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src))
}

func TestKernelAllocRangeDispatchOK(t *testing.T) {
	// The range-dispatch shape of stage 2: the kernel is a local closure
	// handed to ForCoarse; per-range scratch is sized outside it and
	// indexed by the range number, so the body appends only through a
	// local.
	src := `package x
type scratch struct{ idx []int64 }
func f(exec Executor, bounds []int, ranges []scratch, errs []error) {
	verifyRange := func(r int) {
		sc := &ranges[r]
		idx := sc.idx
		for i := bounds[r]; i < bounds[r+1]; i++ {
			idx = append(idx, int64(i))
		}
		sc.idx = idx
		errs[r] = nil
	}
	device.ForCoarse(exec, len(bounds)-1, verifyRange)
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src))
}

func TestKernelAllocRangeDispatchCaptured(t *testing.T) {
	// The same shape with the scratch grown inside the kernel: a named
	// closure passed to ForCoarse is checked like a literal passed to For.
	src := `package x
func f(exec Executor, bounds []int) {
	var all []int64
	verifyRange := func(r int) {
		scratch := make([]int64, 0, 8)
		all = append(all, scratch...)
	}
	device.ForCoarse(exec, len(bounds)-1, verifyRange)
	cancelable.ForCoarse(len(bounds)-1, verifyRange)
}`
	expectDiags(t, runSource(t, KernelAlloc, "internal/x", src), "5:kernelalloc", "6:kernelalloc")
}
