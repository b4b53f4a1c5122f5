package main

import (
	"fmt"
	"math"

	"gomd/internal/core"
	"gomd/internal/serve"
)

// The correctness checks compare against physics (an analytic lattice
// sum, conservation laws, an energy-drift tolerance) or against another
// run made in the same benchmark run, never against committed
// bit-exact goldens, so a change that legitimately reorders sums does
// not have to edit the benchmark.

// fccLJPerAtom is the potential energy per atom of the LJ fcc lattice
// at reduced density 0.8442 with the 2.5 sigma cutoff of in.lj: a
// lattice sum over the neighbor shells inside the cutoff, independent
// of the velocity seed.
const fccLJPerAtom = -6.7733681

// checkLatticePE checks the step-0 potential energy per atom of the LJ
// input against the analytic fcc sum.
func checkLatticePE(pePerAtom float64) error {
	if d := math.Abs(pePerAtom - fccLJPerAtom); !(d <= 1e-6) {
		return fmt.Errorf("step-0 PE/atom %.9f differs from the fcc lattice sum %.7f by %.3g (tolerance 1e-6)",
			pePerAtom, fccLJPerAtom, d)
	}
	return nil
}

// maxNVEDriftPerAtom bounds |E(end) - E(start)| / N over the timed
// phase of the NVE LJ run (reduced units, dt = 0.005), which starts
// after the melting transient. Velocity Verlet then conserves energy to
// a few 1e-4 per atom over hundreds of steps; a force or integration
// bug shows as drift far above this.
const maxNVEDriftPerAtom = 2e-3

func checkNVEDrift(e0, e1 float64, atoms int) error {
	d := math.Abs(e1-e0) / float64(atoms)
	if !(d <= maxNVEDriftPerAtom) {
		return fmt.Errorf("NVE energy drift %.3g per atom (E %.9g -> %.9g) exceeds %.3g",
			d, e0, e1, maxNVEDriftPerAtom)
	}
	return nil
}

// checkSameThermo requires two thermo samples to agree bit for bit.
func checkSameThermo(want, got core.Thermo) error {
	pairs := []struct {
		name string
		a, b float64
	}{
		{"temperature", want.Temperature, got.Temperature},
		{"pressure", want.Pressure, got.Pressure},
		{"pe", want.PotEnergy, got.PotEnergy},
		{"ke", want.KinEnergy, got.KinEnergy},
		{"etot", want.TotalEnergy, got.TotalEnergy},
		{"volume", want.Volume, got.Volume},
	}
	if want.Step != got.Step {
		return fmt.Errorf("step %d vs %d", want.Step, got.Step)
	}
	for _, p := range pairs {
		if math.Float64bits(p.a) != math.Float64bits(p.b) {
			return fmt.Errorf("step %d %s %.17g vs %.17g", want.Step, p.name, p.a, p.b)
		}
	}
	return nil
}

// checkConserved requires the atom count to be unchanged and the total
// charge to agree within 1e-9 of the summed |q| (the two sums run in
// different orders).
func checkConserved(n0, n1 int, q0, q1, absQ float64) error {
	if n0 != n1 {
		return fmt.Errorf("atom count %d -> %d", n0, n1)
	}
	if d := math.Abs(q1 - q0); !(d <= 1e-9*math.Max(absQ, 1)) {
		return fmt.Errorf("total charge %.12g -> %.12g", q0, q1)
	}
	return nil
}

// checkRelClose requires |got - want| <= rel * |want|.
func checkRelClose(what string, want, got, rel float64) error {
	if d := math.Abs(got - want); !(d <= rel*math.Abs(want)) {
		return fmt.Errorf("%s %.15g vs reference %.15g (relative difference %.3g > %.0g)",
			what, got, want, d/math.Abs(want), rel)
	}
	return nil
}

// checkJob requires a served job to have finished and its final frame
// to equal the direct Supervisor run of the same spec bit for bit.
func checkJob(id string, state serve.State, got *serve.Frame, want serve.Frame) error {
	if state != serve.StateDone {
		return fmt.Errorf("job %s ended %q, want done", id, state)
	}
	if got == nil {
		return fmt.Errorf("job %s has no final frame", id)
	}
	if got.Step != want.Step {
		return fmt.Errorf("job %s final frame at step %d, reference at %d", id, got.Step, want.Step)
	}
	for _, p := range [][2]float64{{got.Temp, want.Temp}, {got.Prs, want.Prs},
		{got.PE, want.PE}, {got.KE, want.KE}, {got.Etot, want.Etot}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return fmt.Errorf("job %s final frame %+v differs from the direct run %+v", id, *got, want)
		}
	}
	return nil
}

func frameOf(th core.Thermo) serve.Frame {
	return serve.Frame{Step: th.Step, Temp: th.Temperature, Prs: th.Pressure,
		PE: th.PotEnergy, KE: th.KinEnergy, Etot: th.TotalEnergy}
}
