package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewCommValidation(t *testing.T) {
	if _, err := NewComm(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewComm(-2); err == nil {
		t.Error("negative size accepted")
	}
	c, err := NewComm(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Errorf("Size = %d", c.Size())
	}
	if _, err := c.Rank(3); !errors.Is(err, ErrInvalidRank) {
		t.Errorf("out-of-range rank error = %v", err)
	}
	if _, err := c.Rank(-1); !errors.Is(err, ErrInvalidRank) {
		t.Errorf("negative rank error = %v", err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 7, []byte("hello rank 1"))
		}
		data, err := r.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "hello rank 1" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(r *Rank) error {
		if r.ID() == 0 {
			buf := []byte("original")
			if err := r.Send(1, 0, buf); err != nil {
				return err
			}
			copy(buf, "CLOBBER!")
			return nil
		}
		time.Sleep(10 * time.Millisecond) // let rank 0 clobber first
		data, err := r.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(data) != "original" {
			return fmt.Errorf("payload aliased: %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	err := Run(2, func(r *Rank) error {
		if r.ID() == 0 {
			for _, tag := range []int{1, 2, 3} {
				if err := r.Send(1, tag, []byte{byte(tag)}); err != nil {
					return err
				}
			}
			return nil
		}
		// Receive in reverse tag order: mismatches must be parked.
		for _, tag := range []int{3, 2, 1} {
			data, err := r.Recv(0, tag)
			if err != nil {
				return err
			}
			if len(data) != 1 || int(data[0]) != tag {
				return fmt.Errorf("tag %d got %v", tag, data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerTagFIFO(t *testing.T) {
	const n = 50
	err := Run(2, func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				if err := r.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, err := r.Recv(0, 5)
			if err != nil {
				return err
			}
			if int(data[0]) != i {
				return fmt.Errorf("message %d arrived as %d", i, data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvInvalidPeers(t *testing.T) {
	err := Run(2, func(r *Rank) error {
		if err := r.Send(5, 0, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("send to 5 error = %v", err)
		}
		if _, err := r.Recv(-1, 0); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("recv from -1 error = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	err := Run(4, func(r *Rank) error {
		partner := r.ID() ^ 1 // pairs (0,1) and (2,3)
		got, err := r.Sendrecv(partner, 9, []byte{byte(r.ID())})
		if err != nil {
			return err
		}
		if len(got) != 1 || int(got[0]) != partner {
			return fmt.Errorf("rank %d got %v from partner %d", r.ID(), got, partner)
		}
		// Self-exchange returns a copy of the payload.
		self, err := r.Sendrecv(r.ID(), 9, []byte{0xAB})
		if err != nil {
			return err
		}
		if len(self) != 1 || self[0] != 0xAB {
			return fmt.Errorf("self exchange got %v", self)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const ranks = 8
	var before, after int32
	err := Run(ranks, func(r *Rank) error {
		atomic.AddInt32(&before, 1)
		r.Barrier()
		// Everyone must have incremented before anyone proceeds.
		if got := atomic.LoadInt32(&before); got != ranks {
			return fmt.Errorf("rank %d passed barrier with before=%d", r.ID(), got)
		}
		atomic.AddInt32(&after, 1)
		r.Barrier() // reusable
		if got := atomic.LoadInt32(&after); got != ranks {
			return fmt.Errorf("rank %d passed 2nd barrier with after=%d", r.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	const ranks = 5
	err := Run(ranks, func(r *Rank) error {
		vals := []float64{float64(r.ID()), 1, float64(r.ID() * r.ID())}
		sum, err := r.AllReduceSum(vals)
		if err != nil {
			return err
		}
		want := []float64{0 + 1 + 2 + 3 + 4, ranks, 0 + 1 + 4 + 9 + 16}
		for i := range want {
			if sum[i] != want[i] {
				return fmt.Errorf("rank %d: sum[%d] = %v, want %v", r.ID(), i, sum[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSingleRank(t *testing.T) {
	err := Run(1, func(r *Rank) error {
		in := []float64{1, 2, 3}
		out, err := r.AllReduceSum(in)
		if err != nil {
			return err
		}
		out[0] = 99 // must not alias the input
		if in[0] != 1 {
			return errors.New("allreduce aliased its input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceDeterministicOrder(t *testing.T) {
	// Summation order is fixed (rank 0, 1, 2...), so results are bitwise
	// identical across repetitions even for ill-conditioned values.
	run := func() []float64 {
		results := make([]float64, 4)
		err := Run(4, func(r *Rank) error {
			v := []float64{1e16 * float64(1+r.ID()%2), 1.0}
			sum, err := r.AllReduceSum(v)
			if err != nil {
				return err
			}
			results[r.ID()] = sum[0] + sum[1]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("allreduce not deterministic at rank %d", i)
		}
	}
}

func TestAllGather(t *testing.T) {
	const ranks = 4
	err := Run(ranks, func(r *Rank) error {
		payload := []byte(fmt.Sprintf("rank-%d", r.ID()))
		parts, err := r.AllGather(payload)
		if err != nil {
			return err
		}
		if len(parts) != ranks {
			return fmt.Errorf("got %d parts", len(parts))
		}
		for i, p := range parts {
			if string(p) != fmt.Sprintf("rank-%d", i) {
				return fmt.Errorf("part %d = %q", i, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := Run(3, func(r *Rank) error {
		if r.ID() == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("error = %v", err)
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		dec, err := decodeF64(encodeF64(vals))
		if err != nil || len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN-safe bitwise comparison via re-encode.
			a, b := encodeF64(vals[i:i+1]), encodeF64(dec[i:i+1])
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(parts [][]byte) bool {
		dec, err := decodeParts(encodeParts(parts))
		if err != nil || len(dec) != len(parts) {
			return false
		}
		for i := range parts {
			if string(dec[i]) != string(parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeF64 is the byte-side of the round trip above: any payload
// either is refused for its length or decodes to exactly len/8 values that
// encode back to the same bytes (NaN payloads included) — nothing is sized
// by anything but the bytes that are there.
func FuzzDecodeF64(f *testing.F) {
	f.Add(encodeF64([]float64{0, -0.0, 1.5, math.Inf(-1), math.NaN()}))
	f.Add([]byte{})
	f.Add(make([]byte, 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := decodeF64(data)
		if (err != nil) != (len(data)%8 != 0) {
			t.Fatalf("%d bytes: err %v", len(data), err)
		}
		if err == nil && (len(vals) != len(data)/8 || !bytes.Equal(encodeF64(vals), data)) {
			t.Fatalf("%d bytes decoded to %d values that do not encode back", len(data), len(vals))
		}
	})
}

func TestCodecRejectsCorrupt(t *testing.T) {
	if _, err := decodeF64(make([]byte, 7)); err == nil {
		t.Error("misaligned f64 payload accepted")
	}
	if _, err := decodeParts(nil); err == nil {
		t.Error("nil parts payload accepted")
	}
	if _, err := decodeParts([]byte{2, 0, 0, 0, 10, 0, 0, 0, 1}); err == nil {
		t.Error("truncated parts payload accepted")
	}
	// A forged part count must be refused before it sizes the part list
	// (0xffffffff parts would be a 96 GiB allocation).
	if _, err := decodeParts([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err == nil {
		t.Error("parts payload claiming 2^32-1 parts in 4 bytes accepted")
	}
	if _, err := decodeParts(append(encodeParts([][]byte{{1}}), 0xff)); err == nil {
		t.Error("parts payload with a trailing byte accepted")
	}
}

func TestManyRanksStress(t *testing.T) {
	// A ring exchange across 16 ranks, repeated, with random payloads.
	rng := rand.New(rand.NewSource(3))
	payloads := make([][]byte, 16)
	for i := range payloads {
		payloads[i] = make([]byte, 128+rng.Intn(512))
		rng.Read(payloads[i])
	}
	err := Run(16, func(r *Rank) error {
		right := (r.ID() + 1) % r.Size()
		left := (r.ID() + r.Size() - 1) % r.Size()
		for round := 0; round < 10; round++ {
			if err := r.Send(right, round, payloads[r.ID()]); err != nil {
				return err
			}
			got, err := r.Recv(left, round)
			if err != nil {
				return err
			}
			if string(got) != string(payloads[left]) {
				return fmt.Errorf("round %d: payload mismatch from %d", round, left)
			}
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
