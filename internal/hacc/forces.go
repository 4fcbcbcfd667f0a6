package hacc

import "math"

// computeForces refreshes per-particle accelerations and potentials with
// the P³M decomposition: particle-mesh long-range forces plus a
// short-range particle-particle correction within the cutoff.
func (s *Sim) computeForces() error {
	if err := s.meshForces(); err != nil {
		return err
	}
	s.shortRangeForces()
	return nil
}

// meshForces computes the PM contribution: CIC deposit, FFT Poisson solve,
// central-difference gradient, CIC interpolation back to the particles.
// It overwrites the acceleration and potential arrays.
func (s *Sim) meshForces() error {
	g := s.cfg.Grid
	h := s.cfg.Box / float64(g)
	s.mesh.Clear()
	depositCIC(s.mesh.Data(), g, h, s.px, s.py, s.pz)
	if err := solvePoisson(s.mesh, s.greens); err != nil {
		return err
	}
	gradientForces(s.mesh.Data(), s.fx, s.fy, s.fz, g, h)
	interpolateForces(s.mesh.Data(), s.fx, s.fy, s.fz, g, h,
		s.px, s.py, s.pz, s.ax, s.ay, s.az, s.phi)
	return nil
}

// depositCIC adds unit-mass cloud-in-cell contributions of all particles
// to the density mesh (real parts).
func depositCIC(data []complex128, g int, h float64, px, py, pz []float64) {
	for i := range px {
		i0, i1, wx0, wx1 := cicWeights(px[i], h, g)
		j0, j1, wy0, wy1 := cicWeights(py[i], h, g)
		k0, k1, wz0, wz1 := cicWeights(pz[i], h, g)
		data[(k0*g+j0)*g+i0] += complex(wx0*wy0*wz0, 0)
		data[(k0*g+j0)*g+i1] += complex(wx1*wy0*wz0, 0)
		data[(k0*g+j1)*g+i0] += complex(wx0*wy1*wz0, 0)
		data[(k0*g+j1)*g+i1] += complex(wx1*wy1*wz0, 0)
		data[(k1*g+j0)*g+i0] += complex(wx0*wy0*wz1, 0)
		data[(k1*g+j0)*g+i1] += complex(wx1*wy0*wz1, 0)
		data[(k1*g+j1)*g+i0] += complex(wx0*wy1*wz1, 0)
		data[(k1*g+j1)*g+i1] += complex(wx1*wy1*wz1, 0)
	}
}

// solvePoisson converts the density mesh into the potential mesh in place
// using the precomputed discrete Green's function.
func solvePoisson(mesh interface {
	Forward3D() error
	Inverse3D() error
	Data() []complex128
}, greens []float64) error {
	if err := mesh.Forward3D(); err != nil {
		return err
	}
	data := mesh.Data()
	for i := range data {
		data[i] *= complex(greens[i], 0)
	}
	return mesh.Inverse3D()
}

// gradientForces fills the mesh force fields F = -∇φ with central
// differences under periodic wrap.
func gradientForces(data []complex128, fx, fy, fz []float64, g int, h float64) {
	phiAt := func(x, y, z int) float64 {
		return real(data[((z&(g-1))*g+(y&(g-1)))*g+(x&(g-1))])
	}
	inv2h := 1 / (2 * h)
	for z := 0; z < g; z++ {
		for y := 0; y < g; y++ {
			for x := 0; x < g; x++ {
				idx := (z*g+y)*g + x
				fx[idx] = -(phiAt(x+1, y, z) - phiAt(x-1, y, z)) * inv2h
				fy[idx] = -(phiAt(x, y+1, z) - phiAt(x, y-1, z)) * inv2h
				fz[idx] = -(phiAt(x, y, z+1) - phiAt(x, y, z-1)) * inv2h
			}
		}
	}
}

// interpolateForces CIC-samples the mesh force and potential fields at the
// particle positions, overwriting ax/ay/az/phi.
func interpolateForces(data []complex128, fx, fy, fz []float64, g int, h float64,
	px, py, pz, ax, ay, az, phi []float64) {
	for i := range px {
		i0, i1, wx0, wx1 := cicWeights(px[i], h, g)
		j0, j1, wy0, wy1 := cicWeights(py[i], h, g)
		k0, k1, wz0, wz1 := cicWeights(pz[i], h, g)
		var axv, ayv, azv, phiv float64
		acc := func(ci, cj, ck int, w float64) {
			idx := (ck*g+cj)*g + ci
			axv += fx[idx] * w
			ayv += fy[idx] * w
			azv += fz[idx] * w
			phiv += real(data[idx]) * w
		}
		acc(i0, j0, k0, wx0*wy0*wz0)
		acc(i1, j0, k0, wx1*wy0*wz0)
		acc(i0, j1, k0, wx0*wy1*wz0)
		acc(i1, j1, k0, wx1*wy1*wz0)
		acc(i0, j0, k1, wx0*wy0*wz1)
		acc(i1, j0, k1, wx1*wy0*wz1)
		acc(i0, j1, k1, wx0*wy1*wz1)
		acc(i1, j1, k1, wx1*wy1*wz1)
		ax[i] = axv
		ay[i] = ayv
		az[i] = azv
		phi[i] = phiv
	}
}

// cicWeights returns the two neighbouring node indices and linear weights
// for a coordinate under periodic wrap.
func cicWeights(x, h float64, g int) (int, int, float64, float64) {
	u := x / h
	i := int(math.Floor(u))
	f := u - float64(i)
	i0 := i & (g - 1)
	i1 := (i + 1) & (g - 1)
	return i0, i1, 1 - f, f
}

// pairForce evaluates the short-range softened pair interaction with the
// polynomial cutoff: returns the force factor (multiplying the separation
// vector) and the potential contribution, or ok=false beyond the cutoff.
func pairForce(r2, rc, rc2, eps2 float64) (f, pot float64, ok bool) {
	// The exact cutoff test is part of the deterministic force law.
	if r2 >= rc2 {
		return 0, 0, false
	}
	r := math.Sqrt(r2 + eps2)
	t := 1 - math.Sqrt(r2)/rc
	sfac := t * t
	return sfac / (r * r * r), -sfac / r, true
}

// shortRangeForces adds the PP correction inside the cutoff radius using a
// cell list. In nondeterministic mode the neighbour accumulation order is
// shuffled per step and partial sums are rounded to float32, emulating the
// thread-interleaving FP reordering of the real concurrent code.
func (s *Sim) shortRangeForces() {
	if s.cfg.Cutoff <= 0 {
		return
	}
	g := s.cfg.Grid
	h := s.cfg.Box / float64(g)
	rc := s.cfg.Cutoff * h
	rc2 := rc * rc
	eps := s.cfg.Softening * h
	eps2 := eps * eps
	n := s.cfg.Particles

	// Cell list at mesh resolution (cells are h wide; cutoff spans
	// ceil(Cutoff) cells in each direction).
	for i := range s.cellHead {
		s.cellHead[i] = -1
	}
	cellOf := func(i int) int {
		cx := int(s.px[i]/h) & (g - 1)
		cy := int(s.py[i]/h) & (g - 1)
		cz := int(s.pz[i]/h) & (g - 1)
		return (cz*g+cy)*g + cx
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		s.cellNext[i] = s.cellHead[c]
		s.cellHead[c] = i
	}

	reach := int(math.Ceil(s.cfg.Cutoff))
	box := s.cfg.Box

	// Particle traversal order: shuffled in nondeterministic mode.
	for i := range s.order {
		s.order[i] = i
	}
	if s.rng != nil {
		s.rng.Shuffle(n, func(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] })
	}

	scratch := make([]int, 0, 64)
	for _, i := range s.order {
		cx := int(s.px[i]/h) & (g - 1)
		cy := int(s.py[i]/h) & (g - 1)
		cz := int(s.pz[i]/h) & (g - 1)

		// Gather neighbour candidates.
		scratch = scratch[:0]
		for dz := -reach; dz <= reach; dz++ {
			for dy := -reach; dy <= reach; dy++ {
				for dx := -reach; dx <= reach; dx++ {
					c := (((cz+dz)&(g-1))*g+((cy+dy)&(g-1)))*g + ((cx + dx) & (g - 1))
					for j := s.cellHead[c]; j >= 0; j = s.cellNext[j] {
						if j != i {
							scratch = append(scratch, j)
						}
					}
				}
			}
		}
		if s.rng != nil {
			s.rng.Shuffle(len(scratch), func(a, b int) { scratch[a], scratch[b] = scratch[b], scratch[a] })
		}

		var sax, say, saz, sphi float64
		for _, j := range scratch {
			dx := minImage(s.px[j]-s.px[i], box)
			dy := minImage(s.py[j]-s.py[i], box)
			dz := minImage(s.pz[j]-s.pz[i], box)
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
				// Concurrency-style FP reordering: partial sums live in
				// float32 registers on the device.
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

// minImage maps a separation onto the minimum periodic image.
func minImage(d, box float64) float64 {
	// The exact periodic wrap is part of the deterministic force law.
	if d > box/2 {
		return d - box
	}
	if d < -box/2 {
		return d + box
	}
	return d
}
