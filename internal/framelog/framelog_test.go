package framelog

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/faults"
	"repro/internal/pfs"
)

const testMagic uint32 = 0x54534554 // "TEST"

// frame builds a frame for offset off by hand, the way an outsider would
// from the documented layout — not through Log.Append.
func frame(off int64, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, testMagic)
	b = binary.LittleEndian.AppendUint64(b, uint64(off))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[4:]))
}

// appendFrames frames each payload at the end of raw.
func appendFrames(raw []byte, payloads ...string) []byte {
	for _, p := range payloads {
		raw = append(raw, frame(int64(len(raw)), []byte(p))...)
	}
	return raw
}

// replayAll collects what Replay yields.
func replayAll(t *testing.T, raw []byte) ([]string, []int64, Damage) {
	t.Helper()
	var payloads []string
	var offs []int64
	d, err := Replay(raw, testMagic, func(off int64, payload []byte) error {
		payloads = append(payloads, string(payload))
		offs = append(offs, off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return payloads, offs, d
}

func newLog(t *testing.T) *Log {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	return &Log{Store: store, Name: "dir/test.log", Magic: testMagic}
}

// TestAppendReplayRoundTrip: frames land at non-zero offsets with the
// layout the package documents, and a second life continues the log.
func TestAppendReplayRoundTrip(t *testing.T) {
	ctx := context.Background()
	l := newLog(t)
	if raw, _, err := l.Read(ctx); err != nil || len(raw) != 0 || l.Size != 0 {
		t.Fatalf("absent log: %d bytes, size %d, err %v", len(raw), l.Size, err)
	}
	want := []string{"first", "", "a longer third payload"}
	var hand []byte
	for _, p := range want {
		cost, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		if cost.Ops == 0 {
			t.Fatal("append priced no storage op")
		}
		hand = appendFrames(hand, p)
	}
	l2 := &Log{Store: l.Store, Name: l.Name, Magic: testMagic}
	raw, _, err := l2.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, hand) {
		t.Fatalf("on-disk bytes differ from the documented layout:\n got %x\nwant %x", raw, hand)
	}
	if l2.Size != l.Size || l2.Size != int64(len(raw)) {
		t.Fatalf("sizes: first life %d, second life %d, file %d", l.Size, l2.Size, len(raw))
	}
	if _, err := l2.Append([]byte("fourth")); err != nil {
		t.Fatal(err)
	}
	raw, _, _ = l2.Read(ctx)
	got, offs, d := replayAll(t, raw)
	if fmt.Sprint(got) != fmt.Sprint(append(want, "fourth")) || d.Holes != 0 || d.TornTailBytes != 0 || len(d.BadCRC) != 0 {
		t.Fatalf("replay: %q, damage %+v", got, d)
	}
	if offs[0] != 0 || offs[1] != int64(HeaderSize+len(want[0])+4) {
		t.Fatalf("offsets %v", offs)
	}
}

// TestAppendBound: the writer refuses exactly what the scanner refuses,
// before it writes, and the log is usable afterwards.
func TestAppendBound(t *testing.T) {
	l := newLog(t)
	if _, err := l.Append(make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: %v, want ErrTooLarge", err)
	}
	if l.Size != 0 {
		t.Fatalf("refused append moved Size to %d", l.Size)
	}
	if _, err := l.Append(make([]byte, MaxPayload)); err != nil {
		t.Fatalf("append at the bound: %v", err)
	}
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	raw, _, _ := l.Read(context.Background())
	got, _, d := replayAll(t, raw)
	if len(got) != 2 || len(got[0]) != MaxPayload || got[1] != "after" || d.Holes != 0 || d.TornTailBytes != 0 {
		t.Fatalf("replay at the bound: %d frames, damage %+v", len(got), d)
	}
	// The same length field one over the bound is damage to the scanner.
	over := frame(0, make([]byte, MaxPayload+1))
	if got, _, d := replayAll(t, over); len(got) != 0 || d.TornTailBytes != int64(len(over)) {
		t.Fatalf("over-bound frame replayed: %d frames, damage %+v", len(got), d)
	}
}

// TestTornAppendAtEveryByte tears an append after every possible prefix,
// in the same process, and appends past it: the log does not wedge, the
// torn bytes are exactly one hole, and both neighbours are recovered.
func TestTornAppendAtEveryByte(t *testing.T) {
	victim := []byte("the frame that tears")
	for keep := 1; keep < HeaderSize+len(victim)+4; keep++ {
		l := newLog(t)
		if _, err := l.Append([]byte("before")); err != nil {
			t.Fatal(err)
		}
		before := l.Size
		l.Store.SetFaultHook(faults.New(1, faults.Rule{Kind: faults.TornWrite, Name: "test.log", Keep: keep}))
		_, err := l.Append(victim)
		l.Store.SetFaultHook(nil)
		if err == nil {
			t.Fatalf("keep %d: torn append reported success", keep)
		}
		if l.Size != before+int64(keep) {
			t.Fatalf("keep %d: size %d, want %d (torn prefix accounted)", keep, l.Size, before+int64(keep))
		}
		raw, _, _ := l.Read(context.Background())
		if got, _, d := replayAll(t, raw); len(got) != 1 || d.Holes != 0 || d.TornTailBytes != int64(keep) || len(d.BadCRC) != 0 {
			t.Fatalf("keep %d: before the next append: %q, damage %+v", keep, got, d)
		}
		// A payload long enough that the torn header's declared extent
		// fits inside the file again: still a hole, not a bad-CRC frame.
		after := string(bytes.Repeat([]byte("after "), 8))
		if _, err := l.Append([]byte(after)); err != nil {
			t.Fatalf("keep %d: append after a torn one: %v", keep, err)
		}
		raw, _, _ = l.Read(context.Background())
		got, offs, d := replayAll(t, raw)
		if len(got) != 2 || got[0] != "before" || got[1] != after {
			t.Fatalf("keep %d: recovered %q", keep, got)
		}
		if d.Holes != 1 || d.TornTailBytes != 0 || len(d.BadCRC) != 0 {
			t.Fatalf("keep %d: damage %+v, want exactly one hole", keep, d)
		}
		if offs[1] != before+int64(keep) {
			t.Fatalf("keep %d: successor at %d, want %d", keep, offs[1], before+int64(keep))
		}
	}
}

// TestDamageClasses: a hole, a torn tail and a complete frame with a bad
// CRC are three different reports.
func TestDamageClasses(t *testing.T) {
	clean := appendFrames(nil, "one", "two", "three")
	second := HeaderSize + len("one") + 4
	third := second + HeaderSize + len("two") + 4
	flip := func(raw []byte, i int) []byte {
		out := bytes.Clone(raw)
		out[i] ^= 0x40
		return out
	}
	// A log where "two" was torn after 9 bytes and "three" appended past it.
	torn := appendFrames(nil, "one")
	torn = append(torn, frame(int64(len(torn)), []byte("two"))[:9]...)
	torn = appendFrames(torn, "three")
	// A payload carrying a whole frame image whose stored offset is not
	// where it sits: not a frame, even once its host is damaged.
	decoy := string(frame(7, []byte("decoy")))
	hosted := appendFrames(nil, "one", decoy, "three")

	cases := []struct {
		name     string
		raw      []byte
		want     []string
		holes    int
		tornTail int64
		badCRC   []int64
	}{
		{"clean", clean, []string{"one", "two", "three"}, 0, 0, nil},
		{"empty", nil, nil, 0, 0, nil},
		{"torn tail", clean[:len(clean)-5], []string{"one", "two"}, 0, int64(len(clean) - 5 - third), nil},
		{"hole", torn, []string{"one", "three"}, 1, 0, nil},
		{"payload rot mid-log", flip(clean, second+HeaderSize+1), []string{"one", "three"}, 1, 0, []int64{int64(second)}},
		{"payload rot in the last frame", flip(clean, third+HeaderSize), []string{"one", "two"}, 0, int64(len(clean) - third), []int64{int64(third)}},
		{"crc rot", flip(clean, third-1), []string{"one", "three"}, 1, 0, []int64{int64(second)}},
		{"magic rot", flip(clean, second), []string{"one", "three"}, 1, 0, nil},
		{"stored-offset rot", flip(clean, second+5), []string{"one", "three"}, 1, 0, nil},
		{"decoy frame in a payload", hosted, []string{"one", decoy, "three"}, 0, 0, nil},
		{"decoy frame in a damaged payload", flip(hosted, second+HeaderSize+len(decoy)-1), []string{"one", "three"}, 1, 0, []int64{int64(second)}},
		{"no frame at all", []byte("thirty-two bytes of something else"), nil, 0, 34, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, d := replayAll(t, tc.raw)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("frames %q, want %q", got, tc.want)
			}
			if d.Holes != tc.holes || d.TornTailBytes != tc.tornTail || fmt.Sprint(d.BadCRC) != fmt.Sprint(tc.badCRC) {
				t.Errorf("damage %+v, want holes %d torn %d badCRC %v", d, tc.holes, tc.tornTail, tc.badCRC)
			}
		})
	}
}

// TestReplayStopsOnCallbackError: the callback's error comes back as it is.
func TestReplayStopsOnCallbackError(t *testing.T) {
	stop := errors.New("stop")
	calls := 0
	_, err := Replay(appendFrames(nil, "one", "two", "three"), testMagic, func(int64, []byte) error {
		calls++
		if calls == 2 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 2 {
		t.Fatalf("err %v after %d calls, want the callback's error after 2", err, calls)
	}
}

// FuzzReplay: never panics, never yields a payload whose frame is not
// CRC-valid at its own stored offset, and recovers every frame appended
// before and after an injected damage region.
func FuzzReplay(f *testing.F) {
	f.Add([]byte("damage"), []byte("payload"), uint8(2), uint8(3))
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))
	f.Add(frame(0, []byte("looks like a frame at offset 0")), []byte("p"), uint8(1), uint8(1))
	f.Add(frame(3, []byte("x"))[:9], []byte{0x54, 0x45, 0x53, 0x54}, uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, damage, payload []byte, nBefore, nAfter uint8) {
		if len(payload) > 256 {
			payload = payload[:256]
		}
		var raw []byte
		var want []int64
		for i := 0; i < int(nBefore%5); i++ {
			want = append(want, int64(len(raw)))
			raw = append(raw, frame(int64(len(raw)), payload)...)
		}
		lo := len(raw)
		raw = append(raw, damage...)
		hi := len(raw)
		for i := 0; i < int(nAfter%5); i++ {
			want = append(want, int64(len(raw)))
			raw = append(raw, frame(int64(len(raw)), payload)...)
		}
		var got []int64
		inDamage := false
		d, err := Replay(raw, testMagic, func(off int64, p []byte) error {
			if !bytes.Equal(frame(off, p), raw[off:int(off)+HeaderSize+len(p)+4]) {
				t.Fatalf("yielded a payload at %d that is not a valid frame there", off)
			}
			if int(off) >= lo && int(off) < hi {
				inDamage = true // the fuzzer authored a genuine frame
				return nil
			}
			got = append(got, off)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if inDamage {
			return // a forged valid frame may legitimately cover its successors
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("recovered frames at %v, want %v (damage %+v)", got, want, d)
		}
		if len(damage) > 0 && d.Holes == 0 && d.TornTailBytes == 0 {
			t.Fatalf("%d damage bytes unaccounted: %+v", len(damage), d)
		}
	})
}
