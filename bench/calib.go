package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// The reference box is a few cores of a shared host whose speed shifts by
// up to 1.6x for seconds to minutes at a time: no statistic taken inside
// one run removes that. So every timed slice is bracketed by a fixed
// reference job, and the slice's times are scaled by how much slower or
// faster than calRef the job ran next to it. The job is the paper's
// baseline in miniature, a direct element-wise ε-comparison of two files
// read through the page cache, because that is the resource mix of every
// workload here (pread, streaming memory, float compare, word hashing); it
// is frozen in this file and calls no code of the system under test, so a
// change to the system moves the op times and never the scale.
const (
	// calRef is what one reference job takes on the reference box when
	// the host is quiet; times are reported at that machine speed.
	calRef = time.Millisecond
	// calReps jobs make one calibration point.
	calReps = 3

	calFileBytes  = 32 << 20 // side A is the first half, side B the second
	calBlock      = 64 << 10
	calJobBytes   = 1 << 20 // read per side, per goroutine, per job
	calEps        = 1e-5
	calDivergeOne = 8 // one value in calDivergeOne differs beyond calEps
)

// calibrator runs the reference job. Its buffers are mapped outside the Go
// heap: a live heap of its own would change how often the workload's
// process collects garbage.
type calibrator struct {
	f    *os.File
	bufs [][]byte // one per goroutine: block of A, then block of B
	next int64    // offset of the next job's first block in a side
	sink uint64
}

func newCalibrator(dir string, procs int) (*calibrator, error) {
	path := filepath.Join(dir, "calibration.dat")
	data := make([]byte, calFileBytes)
	half := calFileBytes / 2
	x := uint32(2463534242)
	for i := 0; i < half; i += 4 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := float32(x>>8) / (1 << 24)
		binary.LittleEndian.PutUint32(data[i:], math.Float32bits(v))
		if (i/4)%calDivergeOne == 0 {
			v += 4 * calEps
		}
		binary.LittleEndian.PutUint32(data[half+i:], math.Float32bits(v))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c := &calibrator{f: f}
	for p := 0; p < procs; p++ {
		b, err := syscall.Mmap(-1, 0, 2*calBlock, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			_ = c.close() // the mapping error is the one to report
			return nil, fmt.Errorf("calibrator buffer: %w", err)
		}
		c.bufs = append(c.bufs, b)
	}
	// The first jobs fault the buffers in and fill the page cache.
	for i := 0; i < calFileBytes/2/calJobBytes; i++ {
		if _, err := c.job(); err != nil {
			_ = c.close() // the job error is the one to report
			return nil, err
		}
	}
	return c, nil
}

func (c *calibrator) close() error {
	err := c.f.Close()
	for _, b := range c.bufs {
		if uerr := syscall.Munmap(b); uerr != nil && err == nil {
			err = uerr
		}
	}
	c.bufs = nil
	return err
}

// job compares calJobBytes of side A with side B on every goroutine at
// once and returns how long the slowest took. Successive jobs walk the
// file, so the data comes from the page cache and not from a CPU cache.
func (c *calibrator) job() (time.Duration, error) {
	half := int64(calFileBytes / 2)
	var (
		wg    sync.WaitGroup
		errs  = make([]error, len(c.bufs))
		sinks = make([]uint64, len(c.bufs))
	)
	t0 := time.Now()
	for p := range c.bufs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			a, b := c.bufs[p][:calBlock], c.bufs[p][calBlock:]
			base := (c.next + int64(p)*calJobBytes) % half
			var diffs, hash uint64
			for off := int64(0); off < calJobBytes; off += calBlock {
				if _, err := c.f.ReadAt(a, base+off); err != nil {
					errs[p] = err
					return
				}
				if _, err := c.f.ReadAt(b, half+base+off); err != nil {
					errs[p] = err
					return
				}
				for i := 0; i < calBlock; i += 4 {
					wa, wb := binary.LittleEndian.Uint32(a[i:]), binary.LittleEndian.Uint32(b[i:])
					d := math.Float32frombits(wa) - math.Float32frombits(wb)
					if d < 0 {
						d = -d
					}
					//lint:ignore floatcmp this is the explicit ε comparison, frozen here and independent of errbound on purpose
					if d > calEps {
						diffs++
					}
					hash = (hash ^ uint64(wa)) * 0x87c37b91114253d5
				}
			}
			if want := uint64(calJobBytes / 4 / calDivergeOne); diffs != want {
				errs[p] = fmt.Errorf("calibrator: %d values differ, want %d", diffs, want)
			}
			sinks[p] = hash
		}(p)
	}
	wg.Wait()
	d := time.Since(t0)
	c.next = (c.next + int64(len(c.bufs))*calJobBytes) % half
	for p, err := range errs {
		if err != nil {
			return 0, err
		}
		c.sink ^= sinks[p]
	}
	return d, nil
}

// point is one calibration point: the mean of calReps jobs. The mean, not
// the median, because the host's stalls lengthen a long op in proportion
// to how often they come, and only a mean over short jobs sees that.
func (c *calibrator) point() (time.Duration, error) {
	var sum time.Duration
	for r := 0; r < calReps; r++ {
		d, err := c.job()
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum / calReps, nil
}

// speedScale is the factor that brings a time measured next to the given
// calibration points to the reference machine speed.
func speedScale(points ...time.Duration) float64 {
	var sum time.Duration
	for _, p := range points {
		sum += p
	}
	return float64(len(points)) * float64(calRef) / float64(sum)
}
