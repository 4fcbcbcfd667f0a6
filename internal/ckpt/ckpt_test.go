package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/errbound"
	"repro/internal/pfs"
)

func testMeta(runID string, iter, rank, particles int) Meta {
	fields := make([]FieldSpec, 0, 7)
	for _, n := range []string{"x", "y", "z", "vx", "vy", "vz", "phi"} {
		fields = append(fields, FieldSpec{Name: n, DType: errbound.Float32, Count: int64(particles)})
	}
	return Meta{RunID: runID, Iteration: iter, Rank: rank, Fields: fields}
}

func testData(meta Meta, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, len(meta.Fields))
	for i, f := range meta.Fields {
		b := make([]byte, f.Bytes())
		for j := 0; j < int(f.Count); j++ {
			binary.LittleEndian.PutUint32(b[j*4:], math.Float32bits(rng.Float32()*100-50))
		}
		data[i] = b
	}
	return data
}

func newStore(t *testing.T) *pfs.Store {
	t.Helper()
	s, err := pfs.NewStore(t.TempDir(), pfs.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNameRoundTrip(t *testing.T) {
	n := Name("run1", 30, 7)
	if n != "run1/iter0030.rank007.ckpt" {
		t.Errorf("Name = %q", n)
	}
	run, it, rk, ok := ParseName(n)
	if !ok || run != "run1" || it != 30 || rk != 7 {
		t.Errorf("ParseName = %q %d %d %v", run, it, rk, ok)
	}
	for _, bad := range []string{"x.ckpt", "run1/iter30.rank7.ckpt", "run/iter0001.rank001.dat"} {
		if _, _, _, ok := ParseName(bad); ok {
			t.Errorf("ParseName(%q) accepted", bad)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := newStore(t)
	meta := testMeta("runA", 10, 0, 1000)
	data := testData(meta, 1)
	if _, err := WriteCheckpoint(s, meta, data); err != nil {
		t.Fatal(err)
	}

	r, _, err := OpenReader(s, Name("runA", 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	got := r.Meta()
	if got.RunID != "runA" || got.Iteration != 10 || got.Rank != 0 {
		t.Errorf("meta = %+v", got)
	}
	if r.NumFields() != 7 {
		t.Fatalf("NumFields = %d", r.NumFields())
	}
	if !SameSchema(meta, got) {
		t.Error("schema not preserved")
	}
	for i := range meta.Fields {
		if r.Field(i) != meta.Fields[i] {
			t.Errorf("field %d = %+v, want %+v", i, r.Field(i), meta.Fields[i])
		}
		fd, _, err := r.ReadField(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fd, data[i]) {
			t.Errorf("field %d data mismatch", i)
		}
		if _, err := r.VerifyField(i); err != nil {
			t.Errorf("VerifyField(%d): %v", i, err)
		}
	}
	if got.TotalBytes() != 7*1000*4 {
		t.Errorf("TotalBytes = %d", got.TotalBytes())
	}
}

func TestFieldIndexAndOffsets(t *testing.T) {
	s := newStore(t)
	meta := testMeta("runB", 0, 0, 128)
	data := testData(meta, 2)
	if _, err := WriteCheckpoint(s, meta, data); err != nil {
		t.Fatal(err)
	}
	r, _, err := OpenReader(s, Name("runB", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if i := r.FieldIndex("vz"); i != 5 {
		t.Errorf("FieldIndex(vz) = %d", i)
	}
	if i := r.FieldIndex("nope"); i != -1 {
		t.Errorf("FieldIndex(nope) = %d", i)
	}
	// Field offsets are strictly increasing by field size.
	for i := 1; i < r.NumFields(); i++ {
		if r.FieldFileOffset(i) != r.FieldFileOffset(i-1)+r.Field(i-1).Bytes() {
			t.Errorf("field %d offset %d not contiguous", i, r.FieldFileOffset(i))
		}
	}
}

func TestReadFieldAtScattered(t *testing.T) {
	s := newStore(t)
	meta := testMeta("runC", 0, 0, 4096)
	data := testData(meta, 3)
	if _, err := WriteCheckpoint(s, meta, data); err != nil {
		t.Fatal(err)
	}
	r, _, err := OpenReader(s, Name("runC", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 256)
	n, _, err := r.ReadFieldAt(3, buf, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 256 || !bytes.Equal(buf, data[3][1000:1256]) {
		t.Error("scattered read content mismatch")
	}
	// Clamped read at the end of the field.
	tail := make([]byte, 256)
	n, _, err = r.ReadFieldAt(3, tail, meta.Fields[3].Bytes()-100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("tail read n = %d, want 100", n)
	}
	// Out-of-range offsets rejected.
	if _, _, err := r.ReadFieldAt(3, buf, -1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, _, err := r.ReadFieldAt(3, buf, meta.Fields[3].Bytes()); err == nil {
		t.Error("offset at field end accepted")
	}
}

func TestEncodeValidation(t *testing.T) {
	var buf memFile
	good := testMeta("r", 0, 0, 4)
	data := testData(good, 4)

	if _, err := Encode(&buf, good, data[:3]); err == nil {
		t.Error("wrong buffer count accepted")
	}
	if _, err := Encode(&buf, Meta{RunID: "r"}, nil); err == nil {
		t.Error("zero fields accepted")
	}
	noID := good
	noID.RunID = ""
	if _, err := Encode(&buf, noID, data); err == nil {
		t.Error("empty run ID accepted")
	}
	badDT := testMeta("r", 0, 0, 4)
	badDT.Fields[0].DType = errbound.DType(99)
	if _, err := Encode(&buf, badDT, data); err == nil {
		t.Error("bad dtype accepted")
	}
	badCount := testMeta("r", 0, 0, 4)
	badCount.Fields[0].Count = 0
	if _, err := Encode(&buf, badCount, data); err == nil {
		t.Error("zero count accepted")
	}
	short := testData(good, 5)
	short[2] = short[2][:8]
	if _, err := Encode(&buf, good, short); err == nil {
		t.Error("short field data accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := newStore(t)
	meta := testMeta("runD", 0, 0, 64)
	data := testData(meta, 6)
	raw := encodeBytes(t, meta, data)

	write := func(name string, b []byte) {
		w, err := s.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Header corruption -> OpenReader fails with ErrCorrupt.
	bad := append([]byte(nil), raw...)
	bad[1] ^= 0xff
	write("bad1.ckpt", bad)
	if _, _, err := OpenReader(s, "bad1.ckpt"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("magic corruption error = %v", err)
	}

	bad2 := append([]byte(nil), raw...)
	bad2[10] ^= 0x01 // inside run ID / header body: header CRC must trip
	write("bad2.ckpt", bad2)
	if _, _, err := OpenReader(s, "bad2.ckpt"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("header corruption error = %v", err)
	}

	// Data corruption -> VerifyField fails.
	bad3 := append([]byte(nil), raw...)
	bad3[len(bad3)-5] ^= 0x01
	write("bad3.ckpt", bad3)
	r, _, err := OpenReader(s, "bad3.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.VerifyField(6); !errors.Is(err, ErrCorrupt) {
		t.Errorf("data corruption error = %v", err)
	}

	// Truncated file.
	write("bad4.ckpt", raw[:16])
	if _, _, err := OpenReader(s, "bad4.ckpt"); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

func TestHistoryOrdering(t *testing.T) {
	s := newStore(t)
	meta := testMeta("runE", 0, 0, 8)
	for _, ir := range [][2]int{{20, 1}, {10, 0}, {10, 1}, {20, 0}} {
		m := meta
		m.Iteration, m.Rank = ir[0], ir[1]
		if _, err := WriteCheckpoint(s, m, testData(m, int64(ir[0]*10+ir[1]))); err != nil {
			t.Fatal(err)
		}
	}
	// A non-checkpoint file in the run directory must be ignored.
	w, _ := s.Create("runE/notes.txt")
	w.Write([]byte("hi"))
	w.Close()

	h, err := History(s, "runE")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"runE/iter0010.rank000.ckpt",
		"runE/iter0010.rank001.ckpt",
		"runE/iter0020.rank000.ckpt",
		"runE/iter0020.rank001.ckpt",
	}
	if len(h) != len(want) {
		t.Fatalf("history = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("history[%d] = %q, want %q", i, h[i], want[i])
		}
	}
}

func TestCheckpointerAsyncFlush(t *testing.T) {
	local := newStore(t)
	remote, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCheckpointer(local, remote, 2)

	metas := make([]Meta, 0, 4)
	for iter := 0; iter < 4; iter++ {
		m := testMeta("runF", iter*10, 0, 256)
		metas = append(metas, m)
		if err := c.Capture(m, testData(m, int64(iter))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Everything must now be durable on the remote tier and readable.
	for _, m := range metas {
		r, _, err := OpenReader(remote, Name(m.RunID, m.Iteration, m.Rank))
		if err != nil {
			t.Fatalf("remote read %d: %v", m.Iteration, err)
		}
		if !SameSchema(m, r.Meta()) {
			t.Error("remote schema mismatch")
		}
		r.Close()
	}
	lc, rc := c.Costs()
	if lc.TotalBytes() == 0 || rc.TotalBytes() == 0 {
		t.Error("costs not accounted")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Error("double close errored")
	}
	if err := c.Capture(metas[0], testData(metas[0], 0)); err == nil {
		t.Error("capture after close accepted")
	}
}

func TestSameSchema(t *testing.T) {
	a := testMeta("x", 0, 0, 10)
	b := testMeta("y", 5, 1, 10) // different identity, same layout
	if !SameSchema(a, b) {
		t.Error("identical layouts reported different")
	}
	c := testMeta("z", 0, 0, 11)
	if SameSchema(a, c) {
		t.Error("different counts reported same")
	}
	d := testMeta("z", 0, 0, 10)
	d.Fields = d.Fields[:6]
	if SameSchema(a, d) {
		t.Error("different field counts reported same")
	}
}

// nameOracle is the pattern of a checkpoint name, the oracle of
// ParseName, which parses the fixed suffix by hand.
var nameOracle = regexp.MustCompile(`^(.+)/iter(\d{4})\.rank(\d{3})\.ckpt$`)

// oracleParseName is ParseName by the pattern.
func oracleParseName(name string) (runID string, iteration, rank int, ok bool) {
	m := nameOracle.FindStringSubmatch(name)
	if m == nil {
		return "", 0, 0, false
	}
	it, err1 := strconv.Atoi(m[2])
	rk, err2 := strconv.Atoi(m[3])
	if err1 != nil || err2 != nil {
		return "", 0, 0, false
	}
	return m[1], it, rk, true
}

// parseNameCases are the edges of the pattern, each held to the oracle.
var parseNameCases = []string{
	"run1/iter0030.rank007.ckpt",
	"a/b/c/iter9999.rank999.ckpt",    // nested directories
	"/iter0001.rank001.ckpt",         // an empty run ID
	"//iter0001.rank001.ckpt",        // a run ID of one slash
	"run\n/iter0001.rank001.ckpt",    // '.' does not match a newline
	"ru\rn/iter0001.rank001.ckpt",    // but a carriage return
	"run/iter00001.rank001.ckpt",     // a 5-digit iteration
	"run/iter001.rank0001.ckpt",      // digits moved between the fields
	"run/iter０001.rank001.ckpt",      // non-ASCII digits
	"run/iter٠٠٠١.rank001.ckpt",      // non-ASCII digits
	"run/iter0001.rank00x.ckpt",      // a letter in the rank
	"run/iter0001xrank001.ckpt",      // the dot is literal
	"run/iter0001.rank001.ckpt\n",    // $ is the end of the text
	"run/iter0001.rank001.ckpt.ckpt", // a suffix after the suffix
	"x/iter0001.rank001.ckpt/iter0002.rank002.ckpt",
	"\xff\xfe/iter0001.rank001.ckpt", // invalid UTF-8 in the run ID
	"run/iter0001.rank001.CKPT",
	"x.ckpt",
	"",
}

// TestParseNameMatchesOracle: the hand parser agrees with the pattern on
// every edge of the table.
func TestParseNameMatchesOracle(t *testing.T) {
	for _, name := range parseNameCases {
		run, it, rk, ok := ParseName(name)
		wrun, wit, wrk, wok := oracleParseName(name)
		if run != wrun || it != wit || rk != wrk || ok != wok {
			t.Errorf("ParseName(%q) = %q %d %d %v, the pattern says %q %d %d %v", name, run, it, rk, ok, wrun, wit, wrk, wok)
		}
	}
}

// FuzzParseName holds ParseName to the pattern on any name.
func FuzzParseName(f *testing.F) {
	for _, name := range parseNameCases {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		run, it, rk, ok := ParseName(name)
		wrun, wit, wrk, wok := oracleParseName(name)
		if run != wrun || it != wit || rk != wrk || ok != wok {
			t.Fatalf("ParseName(%q) = %q %d %d %v, the pattern says %q %d %d %v", name, run, it, rk, ok, wrun, wit, wrk, wok)
		}
	})
}
