package merkle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/murmur3"
)

// leafDigests builds deterministic fake leaf digests; index i's digest is
// the hash of its index, optionally perturbed for the indices in mutate.
func leafDigests(n int, mutate map[int]bool) []murmur3.Digest {
	out := make([]murmur3.Digest, n)
	for i := 0; i < n; i++ {
		b := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
		if mutate[i] {
			b = append(b, 0xff)
		}
		out[i] = murmur3.SumDigest(b, murmur3.Digest{})
	}
	return out
}

func buildTree(t *testing.T, dataLen int64, chunkSize int, mutate map[int]bool) *Tree {
	t.Helper()
	n := int((dataLen + int64(chunkSize) - 1) / int64(chunkSize))
	tr, err := New(dataLen, chunkSize, leafDigests(n, mutate))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tr.Build(device.Serial{})
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 0, nil); err == nil {
		t.Error("chunkSize=0 accepted")
	}
	if _, err := New(0, 16, nil); err == nil {
		t.Error("dataLen=0 accepted")
	}
	if _, err := New(100, 16, leafDigests(3, nil)); err == nil {
		t.Error("wrong leaf count accepted (want 7)")
	}
}

func TestGeometry(t *testing.T) {
	tr := buildTree(t, 1000, 100, nil) // 10 leaves -> padded 16, depth 4
	if tr.NumChunks() != 10 {
		t.Errorf("NumChunks = %d", tr.NumChunks())
	}
	if tr.Depth() != 4 {
		t.Errorf("Depth = %d", tr.Depth())
	}
	if tr.ChunkSize() != 100 || tr.DataLen() != 1000 {
		t.Error("accessors wrong")
	}
	off, n := tr.ChunkRange(9)
	if off != 900 || n != 100 {
		t.Errorf("ChunkRange(9) = (%d,%d)", off, n)
	}
	// Short final chunk.
	tr2 := buildTree(t, 950, 100, nil)
	off, n = tr2.ChunkRange(9)
	if off != 900 || n != 50 {
		t.Errorf("short ChunkRange(9) = (%d,%d)", off, n)
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := buildTree(t, 64, 128, nil)
	if tr.NumChunks() != 1 || tr.Depth() != 0 {
		t.Errorf("single leaf: chunks=%d depth=%d", tr.NumChunks(), tr.Depth())
	}
	if tr.Root() != tr.Leaf(0) {
		t.Error("root of single-leaf tree should equal the leaf")
	}
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	leaves := leafDigests(33, nil)
	a, err := New(33*64, 64, leaves)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(33*64, 64, leaves)
	if err != nil {
		t.Fatal(err)
	}
	a.Build(device.Serial{})
	b.Build(device.NewParallel(4))
	if a.Root() != b.Root() {
		t.Error("parallel build root differs from serial build root")
	}
	// nil executor defaults to serial
	c, _ := New(33*64, 64, leaves)
	c.Build(nil)
	if c.Root() != a.Root() {
		t.Error("nil-executor build differs")
	}
}

func TestRootSensitivity(t *testing.T) {
	a := buildTree(t, 64*64, 64, nil)
	b := buildTree(t, 64*64, 64, map[int]bool{17: true})
	if a.Root() == b.Root() {
		t.Error("root insensitive to a leaf change")
	}
}

func TestDiffIdentical(t *testing.T) {
	a := buildTree(t, 10000, 64, nil)
	b := buildTree(t, 10000, 64, nil)
	for _, start := range []int{0, 2, a.Depth()} {
		chunks, compared, err := Diff(a, b, start, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 0 {
			t.Errorf("start=%d: identical trees diff = %v", start, chunks)
		}
		if compared <= 0 {
			t.Errorf("start=%d: no nodes compared", start)
		}
	}
}

func TestDiffFindsExactChunks(t *testing.T) {
	mutate := map[int]bool{0: true, 7: true, 41: true, 99: true}
	a := buildTree(t, 100*32, 32, nil)
	b := buildTree(t, 100*32, 32, mutate)
	for _, start := range []int{0, 1, 3, 5, a.Depth()} {
		chunks, _, err := Diff(a, b, start, device.NewParallel(3))
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, 7, 41, 99}
		sort.Ints(chunks)
		if len(chunks) != len(want) {
			t.Fatalf("start=%d: diff = %v, want %v", start, chunks, want)
		}
		for i := range want {
			if chunks[i] != want[i] {
				t.Fatalf("start=%d: diff = %v, want %v", start, chunks, want)
			}
		}
	}
}

func TestDiffPruningReducesWork(t *testing.T) {
	// One changed chunk out of 1024: pruned BFS must visit far fewer nodes
	// than the whole tree.
	a := buildTree(t, 1024*16, 16, nil)
	b := buildTree(t, 1024*16, 16, map[int]bool{512: true})
	_, compared, err := Diff(a, b, a.DefaultStartLevel(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	totalNodes := int64(2*1024 - 1)
	if compared >= totalNodes/4 {
		t.Errorf("pruned BFS compared %d of %d nodes", compared, totalNodes)
	}
}

func TestDiffStartLevelClamped(t *testing.T) {
	a := buildTree(t, 8*16, 16, nil)
	b := buildTree(t, 8*16, 16, map[int]bool{3: true})
	chunks, _, err := Diff(a, b, 99, nil) // beyond leaf level: clamp
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || chunks[0] != 3 {
		t.Errorf("clamped diff = %v", chunks)
	}
	chunks, _, err = Diff(a, b, -5, nil) // below root: clamp
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || chunks[0] != 3 {
		t.Errorf("negative-start diff = %v", chunks)
	}
}

func TestDiffGeometryMismatch(t *testing.T) {
	a := buildTree(t, 1000, 100, nil)
	b := buildTree(t, 1000, 50, nil)
	if _, _, err := Diff(a, b, 0, nil); !errors.Is(err, ErrGeometry) {
		t.Errorf("geometry mismatch error = %v", err)
	}
	c := buildTree(t, 900, 100, nil)
	if _, _, err := Diff(a, c, 0, nil); !errors.Is(err, ErrGeometry) {
		t.Errorf("dataLen mismatch error = %v", err)
	}
}

func TestDefaultStartLevel(t *testing.T) {
	tr := buildTree(t, 1<<20, 1<<10, nil) // 1024 leaves, depth 10
	if lvl := tr.DefaultStartLevel(1); lvl < 1 || lvl > tr.Depth() {
		t.Errorf("start level %d out of range", lvl)
	}
	// Wide parallelism clamps to leaf level.
	if lvl := tr.DefaultStartLevel(1 << 20); lvl != tr.Depth() {
		t.Errorf("start level %d, want leaf level %d", lvl, tr.Depth())
	}
	// Width at chosen level must be >= 4*parallelism when not clamped.
	lvl := tr.DefaultStartLevel(8)
	if 1<<lvl < 32 {
		t.Errorf("level %d has width %d < 32", lvl, 1<<lvl)
	}
}

func TestQuickDiffMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(nLeaves16 uint8, nMut uint8, startSeed uint8) bool {
		n := int(nLeaves16%200) + 1
		mutate := make(map[int]bool)
		for i := 0; i < int(nMut%16); i++ {
			mutate[rng.Intn(n)] = true
		}
		chunkSize := 64
		dataLen := int64(n * chunkSize)
		a, err1 := New(dataLen, chunkSize, leafDigests(n, nil))
		b, err2 := New(dataLen, chunkSize, leafDigests(n, mutate))
		if err1 != nil || err2 != nil {
			return false
		}
		a.Build(nil)
		b.Build(nil)
		start := int(startSeed) % (a.Depth() + 1)
		got, _, err := Diff(a, b, start, nil)
		if err != nil {
			return false
		}
		want := make([]int, 0, len(mutate))
		for i := range mutate {
			want = append(want, i)
		}
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	tr := buildTree(t, 12345, 128, map[int]bool{5: true})
	var buf bytes.Buffer
	nw, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nw != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", nw, buf.Len())
	}
	if nw != tr.MetadataBytes() {
		t.Errorf("MetadataBytes = %d, actual %d", tr.MetadataBytes(), nw)
	}
	got, nr, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if int64(nr) != nw {
		t.Errorf("Decode consumed %d, want %d", nr, nw)
	}
	if got.Root() != tr.Root() || got.NumChunks() != tr.NumChunks() ||
		got.ChunkSize() != tr.ChunkSize() || got.DataLen() != tr.DataLen() {
		t.Error("round trip lost tree state")
	}
	chunks, _, err := Diff(tr, got, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Errorf("round-tripped tree differs: %v", chunks)
	}
}

func TestReadFromRejectsCorruption(t *testing.T) {
	tr := buildTree(t, 4096, 256, nil)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flip := func(i int) []byte {
		c := make([]byte, len(good))
		copy(c, good)
		c[i] ^= 0x01
		return c
	}

	if _, _, err := Decode(flip(0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic error = %v", err)
	}
	if _, _, err := Decode(flip(4)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad version error = %v", err)
	}
	// Flip a node byte: CRC must catch it.
	if _, _, err := Decode(flip(headerSize + 3)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted node error = %v", err)
	}
	// Truncated bytes.
	if _, _, err := Decode(good[:len(good)-8]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated nodes error = %v", err)
	}
	if _, _, err := Decode(good[:10]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header error = %v", err)
	}
}

// TestDecodeInPlace pins the decode-from-bytes contract: the tree adopts
// the buffer's node bytes (one allocation, the tree header), every prefix
// of a valid encoding is rejected without a panic, and a forged leaf count
// is refused before it can size anything.
func TestDecodeInPlace(t *testing.T) {
	tr := buildTree(t, 12345, 128, map[int]bool{5: true})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := append(buf.Bytes(), "trailing bytes of the container"...)
	got, n, err := Decode(good)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != tr.MetadataBytes() {
		t.Errorf("Decode consumed %d, want %d", n, tr.MetadataBytes())
	}
	if i, ok := nodesEqual(tr, got); !ok {
		t.Errorf("decoded tree differs at node %d", i)
	}
	if &got.nodes[0] != &good[headerSize] {
		t.Error("decoded tree copied its nodes out of the buffer")
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _, _ = Decode(good) }); allocs > 1 {
		t.Errorf("Decode: %v allocations, want at most 1", allocs)
	}

	for cut := 0; cut < n; cut++ {
		if _, _, err := Decode(good[:cut]); err == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
	}
	forged := bytes.Clone(good[:headerSize])
	binary.LittleEndian.PutUint32(forged[8:12], 1)             // chunk size 1
	binary.LittleEndian.PutUint32(forged[12:16], maxLeafCount) // 2^30 leaves: a 32 GiB node array
	binary.LittleEndian.PutUint64(forged[16:24], maxLeafCount)
	// Bytes, not allocation count: the count picks up the race detector's
	// own allocations, and the size is the property.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = Decode(forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("forged leaf count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("forged leaf count: %d bytes allocated refusing a %d-byte header", grew, len(forged))
	}
}

func BenchmarkBuild1024Leaves(b *testing.B) {
	leaves := leafDigests(1024, nil)
	tr, err := New(1024*4096, 4096, leaves)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Build(device.Serial{})
	}
}

func BenchmarkDiffOneChange4096Leaves(b *testing.B) {
	a := mustTree(b, 4096)
	c := mustTreeMut(b, 4096, map[int]bool{2048: true})
	start := a.DefaultStartLevel(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Diff(a, c, start, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func mustTree(tb testing.TB, n int) *Tree {
	tr, err := New(int64(n)*64, 64, leafDigests(n, nil))
	if err != nil {
		tb.Fatal(err)
	}
	tr.Build(nil)
	return tr
}

func mustTreeMut(tb testing.TB, n int, m map[int]bool) *Tree {
	tr, err := New(int64(n)*64, 64, leafDigests(n, m))
	if err != nil {
		tb.Fatal(err)
	}
	tr.Build(nil)
	return tr
}
