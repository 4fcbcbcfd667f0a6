package hacc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/fft"
	"repro/internal/mpi"
)

// RankSim is one rank of a domain-decomposed parallel simulation: the box
// is split into slabs along z, each rank owns the particles inside its
// slab, and ranks cooperate through the mpi substrate exactly like the
// paper's multi-rank HACC runs:
//
//   - after the drift, particles that crossed a slab boundary migrate to
//     their new owner (all-to-all exchange, then a sort by particle ID so
//     the local order — and therefore the physics — is deterministic);
//   - the PM density is deposited locally and summed across ranks with a
//     deterministic all-reduce; each rank then solves the (identical)
//     global Poisson problem and samples forces for its own particles;
//   - the short-range PP correction sees neighbouring ranks' boundary
//     particles through a halo exchange (shifted across the periodic
//     wrap).
//
// Checkpoints shard the global particle population by ID range, so every
// rank's checkpoint schema is identical across runs and iterations even
// though slab populations fluctuate — the alignment property the
// comparator requires.
type RankSim struct {
	cfg  Config
	r    *mpi.Rank
	step int

	slabLo, slabHi float64

	// Local particles, kept sorted by ID.
	ids                    []int64
	px, py, pz, vx, vy, vz []float64
	ax, ay, az, phi        []float64

	// Halo copies from neighbouring slabs (positions only).
	hpx, hpy, hpz []float64

	mesh   *fft.Cube
	fx     []float64
	fy     []float64
	fz     []float64
	greens []float64

	rng *rand.Rand
}

// Tags for the parallel exchanges.
const (
	tagMigrateBase = 100 // + destination rank
	tagHaloLeft    = 200
	tagHaloRight   = 201
)

// NewRankSim creates one rank of a parallel simulation. All ranks must
// use identical cfg. Requires at least 2 ranks (use Sim for serial runs)
// and a slab at least one cutoff radius wide.
func NewRankSim(cfg Config, r *mpi.Rank) (*RankSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r.Size() < 2 {
		return nil, fmt.Errorf("hacc: parallel simulation needs >= 2 ranks, got %d (use Sim)", r.Size())
	}
	slabW := cfg.Box / float64(r.Size())
	h := cfg.Box / float64(cfg.Grid)
	if cfg.Cutoff*h > slabW {
		return nil, fmt.Errorf("hacc: cutoff %.3g exceeds slab width %.3g; use fewer ranks", cfg.Cutoff*h, slabW)
	}
	mesh, err := fft.NewCube(cfg.Grid)
	if err != nil {
		return nil, err
	}
	g := cfg.Grid
	s := &RankSim{
		cfg:    cfg,
		r:      r,
		slabLo: float64(r.ID()) * slabW,
		slabHi: float64(r.ID()+1) * slabW,
		mesh:   mesh,
		fx:     make([]float64, g*g*g),
		fy:     make([]float64, g*g*g),
		fz:     make([]float64, g*g*g),
		greens: greens(g, cfg.Box),
	}
	if cfg.Nondet {
		// Distinct stream per rank, shared base seed per run.
		s.rng = rand.New(rand.NewSource(cfg.NondetSeed*1_000_003 + int64(r.ID())))
	}
	s.initialConditions()
	if err := s.computeForces(); err != nil {
		return nil, err
	}
	return s, nil
}

// initialConditions replays the SAME global IC generation as the serial
// Sim (identical seed ⇒ identical global particle set), then keeps the
// slab's particles, remembering global indices as IDs.
func (s *RankSim) initialConditions() {
	tmp, ids := globalInitialConditions(s.cfg)
	for i, id := range ids {
		// Slab ownership must partition exactly: an ε band would hand
		// boundary particles to two ranks.
		if tmp.pz[i] >= s.slabLo && tmp.pz[i] < s.slabHi {
			s.ids = append(s.ids, id)
			s.px = append(s.px, tmp.px[i])
			s.py = append(s.py, tmp.py[i])
			s.pz = append(s.pz, tmp.pz[i])
			s.vx = append(s.vx, tmp.vx[i])
			s.vy = append(s.vy, tmp.vy[i])
			s.vz = append(s.vz, tmp.vz[i])
		}
	}
	s.resizeDerived()
}

// globalICs holds the full-population initial state.
type globalICs struct {
	px, py, pz, vx, vy, vz []float64
}

// globalInitialConditions generates the same jittered lattice as
// Sim.initialConditions for a given config.
func globalInitialConditions(cfg Config) (globalICs, []int64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Particles
	var g globalICs
	g.px = make([]float64, n)
	g.py = make([]float64, n)
	g.pz = make([]float64, n)
	g.vx = make([]float64, n)
	g.vy = make([]float64, n)
	g.vz = make([]float64, n)
	ids := make([]int64, n)
	side := int(math.Ceil(math.Cbrt(float64(n))))
	spacing := cfg.Box / float64(side)
	i := 0
	for z := 0; z < side && i < n; z++ {
		for y := 0; y < side && i < n; y++ {
			for x := 0; x < side && i < n; x++ {
				jit := spacing * 0.3
				g.px[i] = wrap((float64(x)+0.5)*spacing+rng.NormFloat64()*jit, cfg.Box)
				g.py[i] = wrap((float64(y)+0.5)*spacing+rng.NormFloat64()*jit, cfg.Box)
				g.pz[i] = wrap((float64(z)+0.5)*spacing+rng.NormFloat64()*jit, cfg.Box)
				vscale := spacing * 0.05
				g.vx[i] = rng.NormFloat64() * vscale
				g.vy[i] = rng.NormFloat64() * vscale
				g.vz[i] = rng.NormFloat64() * vscale
				ids[i] = int64(i)
				i++
			}
		}
	}
	return g, ids
}

func (s *RankSim) resizeDerived() {
	n := len(s.ids)
	s.ax = make([]float64, n)
	s.ay = make([]float64, n)
	s.az = make([]float64, n)
	s.phi = make([]float64, n)
}

// Iteration returns the completed step count.
func (s *RankSim) Iteration() int { return s.step }

// Rank returns the underlying communicator rank.
func (s *RankSim) Rank() *mpi.Rank { return s.r }

// LocalParticles returns how many particles the rank currently owns.
func (s *RankSim) LocalParticles() int { return len(s.ids) }

// Step advances one kick-drift-kick iteration with migration and
// collective force computation.
func (s *RankSim) Step() error {
	half := s.cfg.DT / 2
	for i := range s.ids {
		s.vx[i] += s.ax[i] * half
		s.vy[i] += s.ay[i] * half
		s.vz[i] += s.az[i] * half
		s.px[i] = wrap(s.px[i]+s.vx[i]*s.cfg.DT, s.cfg.Box)
		s.py[i] = wrap(s.py[i]+s.vy[i]*s.cfg.DT, s.cfg.Box)
		s.pz[i] = wrap(s.pz[i]+s.vz[i]*s.cfg.DT, s.cfg.Box)
	}
	if err := s.migrate(); err != nil {
		return err
	}
	if err := s.computeForces(); err != nil {
		return err
	}
	for i := range s.ids {
		s.vx[i] += s.ax[i] * half
		s.vy[i] += s.ay[i] * half
		s.vz[i] += s.az[i] * half
	}
	s.step++
	return nil
}

// particleRec is the wire format of one particle: id + 6 coordinates.
const particleRecBytes = 8 + 6*8

func packParticle(buf []byte, id int64, px, py, pz, vx, vy, vz float64) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(id))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(px))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(py))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(pz))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(vx))
	binary.LittleEndian.PutUint64(buf[40:], math.Float64bits(vy))
	binary.LittleEndian.PutUint64(buf[48:], math.Float64bits(vz))
}

func unpackParticle(buf []byte) (id int64, px, py, pz, vx, vy, vz float64) {
	id = int64(binary.LittleEndian.Uint64(buf[0:]))
	px = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	py = math.Float64frombits(binary.LittleEndian.Uint64(buf[16:]))
	pz = math.Float64frombits(binary.LittleEndian.Uint64(buf[24:]))
	vx = math.Float64frombits(binary.LittleEndian.Uint64(buf[32:]))
	vy = math.Float64frombits(binary.LittleEndian.Uint64(buf[40:]))
	vz = math.Float64frombits(binary.LittleEndian.Uint64(buf[48:]))
	return
}

// owner returns the slab rank owning a z coordinate.
func (s *RankSim) owner(z float64) int {
	p := s.r.Size()
	o := int(z / (s.cfg.Box / float64(p)))
	if o >= p {
		o = p - 1
	}
	if o < 0 {
		o = 0
	}
	return o
}

// migrate performs the all-to-all particle ownership exchange and re-sorts
// the local population by ID.
func (s *RankSim) migrate() error {
	p := s.r.Size()
	outgoing := make([][]byte, p)
	keep := 0
	for i := range s.ids {
		o := s.owner(s.pz[i])
		if o == s.r.ID() {
			s.ids[keep] = s.ids[i]
			s.px[keep] = s.px[i]
			s.py[keep] = s.py[i]
			s.pz[keep] = s.pz[i]
			s.vx[keep] = s.vx[i]
			s.vy[keep] = s.vy[i]
			s.vz[keep] = s.vz[i]
			keep++
			continue
		}
		var rec [particleRecBytes]byte
		packParticle(rec[:], s.ids[i], s.px[i], s.py[i], s.pz[i], s.vx[i], s.vy[i], s.vz[i])
		outgoing[o] = append(outgoing[o], rec[:]...)
	}
	s.truncate(keep)

	// All-to-all: send to every peer (possibly empty), then receive from
	// every peer.
	for dst := 0; dst < p; dst++ {
		if dst == s.r.ID() {
			continue
		}
		if err := s.r.Send(dst, tagMigrateBase+s.r.ID(), outgoing[dst]); err != nil {
			return err
		}
	}
	for src := 0; src < p; src++ {
		if src == s.r.ID() {
			continue
		}
		data, err := s.r.Recv(src, tagMigrateBase+src)
		if err != nil {
			return err
		}
		for off := 0; off+particleRecBytes <= len(data); off += particleRecBytes {
			id, px, py, pz, vx, vy, vz := unpackParticle(data[off:])
			s.ids = append(s.ids, id)
			s.px = append(s.px, px)
			s.py = append(s.py, py)
			s.pz = append(s.pz, pz)
			s.vx = append(s.vx, vx)
			s.vy = append(s.vy, vy)
			s.vz = append(s.vz, vz)
		}
	}
	s.sortByID()
	s.resizeDerived()
	return nil
}

func (s *RankSim) truncate(n int) {
	s.ids = s.ids[:n]
	s.px = s.px[:n]
	s.py = s.py[:n]
	s.pz = s.pz[:n]
	s.vx = s.vx[:n]
	s.vy = s.vy[:n]
	s.vz = s.vz[:n]
}

// sortByID re-establishes the deterministic local order after migration.
func (s *RankSim) sortByID() {
	idx := make([]int, len(s.ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.ids[idx[a]] < s.ids[idx[b]] })
	permI64 := func(v []int64) []int64 {
		out := make([]int64, len(v))
		for i, j := range idx {
			out[i] = v[j]
		}
		return out
	}
	perm := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, j := range idx {
			out[i] = v[j]
		}
		return out
	}
	s.ids = permI64(s.ids)
	s.px = perm(s.px)
	s.py = perm(s.py)
	s.pz = perm(s.pz)
	s.vx = perm(s.vx)
	s.vy = perm(s.vy)
	s.vz = perm(s.vz)
}

// computeForces runs the collective PM solve plus the halo-aware PP
// correction.
func (s *RankSim) computeForces() error {
	g := s.cfg.Grid
	h := s.cfg.Box / float64(g)

	// --- PM: local deposit, global reduce, redundant solve, local sample.
	s.mesh.Clear()
	depositCIC(s.mesh.Data(), g, h, s.px, s.py, s.pz)
	local := make([]float64, g*g*g)
	for i, c := range s.mesh.Data() {
		local[i] = real(c)
	}
	global, err := s.r.AllReduceSum(local)
	if err != nil {
		return err
	}
	data := s.mesh.Data()
	for i := range data {
		data[i] = complex(global[i], 0)
	}
	if err := solvePoisson(s.mesh, s.greens); err != nil {
		return err
	}
	gradientForces(data, s.fx, s.fy, s.fz, g, h)
	interpolateForces(data, s.fx, s.fy, s.fz, g, h,
		s.px, s.py, s.pz, s.ax, s.ay, s.az, s.phi)

	// --- PP: halo exchange then local pair loop.
	if s.cfg.Cutoff <= 0 {
		return nil
	}
	if err := s.exchangeHalo(); err != nil {
		return err
	}
	s.shortRange()
	return nil
}

// exchangeHalo ships boundary particles to the two slab neighbours,
// shifting coordinates across the periodic wrap so received z values are
// directly comparable with local ones.
func (s *RankSim) exchangeHalo() error {
	p := s.r.Size()
	h := s.cfg.Box / float64(s.cfg.Grid)
	rc := s.cfg.Cutoff * h

	var toLeft, toRight []byte
	for i := range s.ids {
		// The exact slab-boundary tests are part of the deterministic ghost
		// exchange.
		if s.pz[i] < s.slabLo+rc {
			var rec [particleRecBytes]byte
			packParticle(rec[:], s.ids[i], s.px[i], s.py[i], s.pz[i], 0, 0, 0)
			toLeft = append(toLeft, rec[:]...)
		}
		if s.pz[i] > s.slabHi-rc {
			var rec [particleRecBytes]byte
			packParticle(rec[:], s.ids[i], s.px[i], s.py[i], s.pz[i], 0, 0, 0)
			toRight = append(toRight, rec[:]...)
		}
	}
	left := (s.r.ID() + p - 1) % p
	right := (s.r.ID() + 1) % p

	// Exchange with left neighbour: we send our low boundary, receive
	// their high boundary. Tags disambiguate direction when p == 2 and
	// left == right.
	if err := s.r.Send(left, tagHaloLeft, toLeft); err != nil {
		return err
	}
	if err := s.r.Send(right, tagHaloRight, toRight); err != nil {
		return err
	}
	fromRight, err := s.r.Recv(right, tagHaloLeft) // right neighbour's low boundary
	if err != nil {
		return err
	}
	fromLeft, err := s.r.Recv(left, tagHaloRight) // left neighbour's high boundary
	if err != nil {
		return err
	}

	s.hpx = s.hpx[:0]
	s.hpy = s.hpy[:0]
	s.hpz = s.hpz[:0]
	appendHalo := func(data []byte, zshift float64) {
		for off := 0; off+particleRecBytes <= len(data); off += particleRecBytes {
			_, px, py, pz, _, _, _ := unpackParticle(data[off:])
			s.hpx = append(s.hpx, px)
			s.hpy = append(s.hpy, py)
			s.hpz = append(s.hpz, pz+zshift)
		}
	}
	// The left neighbour's high boundary sits just below our slab; if we
	// are rank 0 it arrives across the wrap and must be shifted down.
	shiftLeft := 0.0
	if s.r.ID() == 0 {
		shiftLeft = -s.cfg.Box
	}
	shiftRight := 0.0
	if s.r.ID() == p-1 {
		shiftRight = s.cfg.Box
	}
	appendHalo(fromLeft, shiftLeft)
	appendHalo(fromRight, shiftRight)
	return nil
}

// shortRange adds the PP correction for local particles using local +
// halo neighbours. x and y wrap via minimum image; z is pre-unwrapped by
// the halo shift.
func (s *RankSim) shortRange() {
	h := s.cfg.Box / float64(s.cfg.Grid)
	rc := s.cfg.Cutoff * h
	rc2 := rc * rc
	eps := s.cfg.Softening * h
	eps2 := eps * eps
	box := s.cfg.Box
	n := len(s.ids)

	// Combined neighbour set: locals then halos.
	cpx := append(append([]float64{}, s.px...), s.hpx...)
	cpy := append(append([]float64{}, s.py...), s.hpy...)
	cpz := append(append([]float64{}, s.pz...), s.hpz...)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if s.rng != nil {
		s.rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
	}

	// Brute-force over the combined set within the slab (slab populations
	// are modest per rank; a cell list keyed on slab-local cells would be
	// the next optimization).
	neighbors := make([]int, 0, 64)
	for _, i := range order {
		neighbors = neighbors[:0]
		for j := range cpx {
			if j == i {
				continue
			}
			dz := cpz[j] - s.pz[i]
			// The exact cutoff prefilter is part of the deterministic force law.
			if dz > rc || dz < -rc {
				continue
			}
			neighbors = append(neighbors, j)
		}
		if s.rng != nil {
			s.rng.Shuffle(len(neighbors), func(a, b int) {
				neighbors[a], neighbors[b] = neighbors[b], neighbors[a]
			})
		}
		var sax, say, saz, sphi float64
		for _, j := range neighbors {
			dx := minImage(cpx[j]-s.px[i], box)
			dy := minImage(cpy[j]-s.py[i], box)
			dz := cpz[j] - s.pz[i]
			r2 := dx*dx + dy*dy + dz*dz
			f, pot, ok := pairForce(r2, rc, rc2, eps2)
			if !ok {
				continue
			}
			sax += f * dx
			say += f * dy
			saz += f * dz
			sphi += pot
			if s.rng != nil {
				sax = float64(float32(sax))
				say = float64(float32(say))
				saz = float64(float32(saz))
				sphi = float64(float32(sphi))
			}
		}
		s.ax[i] += sax
		s.ay[i] += say
		s.az[i] += saz
		s.phi[i] += sphi
	}
}

// ShardRange returns the global particle-ID range [lo, hi) that this rank
// checkpoints (fixed across iterations and runs).
func (s *RankSim) ShardRange() (lo, hi int64) {
	n := int64(s.cfg.Particles)
	p := int64(s.r.Size())
	per := n / p
	lo = int64(s.r.ID()) * per
	hi = lo + per
	if s.r.ID() == s.r.Size()-1 {
		hi = n
	}
	return lo, hi
}

// SnapshotShard gathers the global particle state and returns this rank's
// fixed ID-range shard as checkpoint field buffers (FieldNames order).
// The gather keeps shards schema-stable across iterations and runs even
// though slab populations fluctuate.
func (s *RankSim) SnapshotShard() ([][]byte, error) {
	// Pack local particles (id + pos + vel + phi).
	const rec = 8 + 7*8
	local := make([]byte, 0, rec*len(s.ids))
	var buf [rec]byte
	for i := range s.ids {
		packParticle(buf[:particleRecBytes], s.ids[i], s.px[i], s.py[i], s.pz[i], s.vx[i], s.vy[i], s.vz[i])
		binary.LittleEndian.PutUint64(buf[particleRecBytes:], math.Float64bits(s.phi[i]))
		local = append(local, buf[:]...)
	}
	parts, err := s.r.AllGather(local)
	if err != nil {
		return nil, err
	}
	lo, hi := s.ShardRange()
	count := int(hi - lo)
	fields := make([][]byte, len(FieldNames))
	for f := range fields {
		fields[f] = make([]byte, 4*count)
	}
	seen := 0
	for _, part := range parts {
		for off := 0; off+rec <= len(part); off += rec {
			id, px, py, pz, vx, vy, vz := unpackParticle(part[off:])
			if id < lo || id >= hi {
				continue
			}
			phi := math.Float64frombits(binary.LittleEndian.Uint64(part[off+particleRecBytes:]))
			i := int(id - lo)
			vals := [7]float64{px, py, pz, vx, vy, vz, phi}
			for f, v := range vals {
				binary.LittleEndian.PutUint32(fields[f][i*4:], math.Float32bits(float32(v)))
			}
			seen++
		}
	}
	if seen != count {
		return nil, fmt.Errorf("hacc: shard gathered %d of %d particles", seen, count)
	}
	return fields, nil
}

// Capture snapshots this rank's shard and hands it to a checkpointer as
// iteration/rank-stamped checkpoint.
func (s *RankSim) Capture(c *ckpt.Checkpointer, runID string) error {
	data, err := s.SnapshotShard()
	if err != nil {
		return err
	}
	lo, hi := s.ShardRange()
	meta := ckpt.Meta{
		RunID:     runID,
		Iteration: s.step,
		Rank:      s.r.ID(),
		Fields:    Schema(int(hi - lo)),
	}
	return c.Capture(meta, data)
}
