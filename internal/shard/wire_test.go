package shard

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/mpi"
)

func sampleVerdict() *VerdictMsg {
	return &VerdictMsg{
		Seq: 7, Pair: 1, Field: 2, Changed: 1, Unverified: 2,
		Diffs: []int64{100, 2048, 99999},
	}
}

func sampleDone() *DoneMsg {
	return &DoneMsg{Worker: 2, Died: 1}
}

// TestWireRoundTripOverMPI sends each message kind through a real mpi
// link — worker rank to coordinator rank — and decodes what arrives: the
// exact path the engine uses.
func TestWireRoundTripOverMPI(t *testing.T) {
	comm, err := mpi.NewComm(2)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := comm.Rank(0)
	worker, _ := comm.Rank(1)

	v, d := sampleVerdict(), sampleDone()
	for _, frame := range [][]byte{EncodeVerdict(v), EncodeDone(d)} {
		if err := worker.Send(0, shardTag, frame); err != nil {
			t.Fatal(err)
		}
	}

	f1, err := coord.Recv(1, shardTag)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := FrameKind(f1); err != nil || kind != kindVerdict {
		t.Fatalf("FrameKind = %d, %v; want verdict", kind, err)
	}
	gv, err := DecodeVerdict(f1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gv, v) {
		t.Errorf("verdict round trip: got %+v, want %+v", gv, v)
	}

	f2, _ := coord.Recv(1, shardTag)
	gd, err := DecodeDone(f2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gd, d) {
		t.Errorf("done round trip: got %+v, want %+v", gd, d)
	}
}

// TestWireRejectsTruncation truncates every frame kind at every length
// and expects a decode error each time — never a silent partial message.
func TestWireRejectsTruncation(t *testing.T) {
	frames := map[string]struct {
		frame  []byte
		decode func([]byte) error
	}{
		"verdict": {EncodeVerdict(sampleVerdict()), func(b []byte) error { _, err := DecodeVerdict(b); return err }},
		"done":    {EncodeDone(sampleDone()), func(b []byte) error { _, err := DecodeDone(b); return err }},
	}
	for name, tc := range frames {
		for n := 0; n < len(tc.frame); n++ {
			if err := tc.decode(tc.frame[:n]); err == nil {
				t.Errorf("%s frame truncated to %d bytes decoded cleanly", name, n)
			}
		}
		if err := tc.decode(nil); err == nil {
			t.Errorf("%s: nil frame decoded cleanly", name)
		}
	}
	// A clean truncation of the parts framing itself maps to ErrTruncated.
	f := EncodeVerdict(sampleVerdict())
	if _, err := DecodeVerdict(f[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("parts-level truncation: got %v, want ErrTruncated", err)
	}
}

// TestWireRejectsTrailingBytes appends garbage inside a part and expects
// rejection: a frame that decodes but carries extra bytes is corrupt.
func TestWireRejectsTrailingBytes(t *testing.T) {
	d := sampleDone()
	parts, err := mpi.DecodeParts(EncodeDone(d))
	if err != nil {
		t.Fatal(err)
	}
	parts[1] = append(append([]byte{}, parts[1]...), 0xff)
	if _, err := DecodeDone(mpi.EncodeParts(parts)); err == nil {
		t.Error("done frame with trailing bytes decoded cleanly")
	}
}

// TestWireRejectsWrongKind feeds each decoder a frame of another kind.
func TestWireRejectsWrongKind(t *testing.T) {
	if _, err := DecodeVerdict(EncodeDone(sampleDone())); err == nil {
		t.Error("DecodeVerdict accepted a done frame")
	}
	if _, err := DecodeDone(EncodeVerdict(sampleVerdict())); err == nil {
		t.Error("DecodeDone accepted a verdict frame")
	}
}

// FuzzDecodeFrame drives the coordinator's receive path — sniff the kind,
// decode by it — over arbitrary bytes: no panic, no allocation an
// unchecked length sized (a decoded message never holds more than the
// frame carried), and a frame that decodes re-encodes to the same bytes,
// so no two frames mean one message.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(EncodeVerdict(sampleVerdict()))
	f.Add(EncodeVerdict(&VerdictMsg{}))
	f.Add(EncodeDone(sampleDone()))
	f.Add(mpi.EncodeParts([][]byte{header(1), nil, nil}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		kind, err := FrameKind(frame)
		if err != nil {
			return
		}
		var again []byte
		switch kind {
		case kindVerdict:
			v, err := DecodeVerdict(frame)
			if err != nil {
				return
			}
			if 8*len(v.Diffs) > len(frame) {
				t.Fatalf("%d diffs decoded from a %d-byte frame", len(v.Diffs), len(frame))
			}
			again = EncodeVerdict(v)
		case kindDone:
			d, err := DecodeDone(frame)
			if err != nil {
				return
			}
			again = EncodeDone(d)
		default:
			if _, err := DecodeVerdict(frame); err == nil {
				t.Fatalf("frame of kind %d decoded as a verdict", kind)
			}
			if _, err := DecodeDone(frame); err == nil {
				t.Fatalf("frame of kind %d decoded as a done marker", kind)
			}
			return
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("frame of kind %d re-encodes to different bytes:\n got %x\nwant %x", kind, again, frame)
		}
	})
}
