package main

import (
	"math"
	"strings"
	"testing"

	"gomd/internal/core"
	"gomd/internal/serve"
)

// Every check must pass on a good output and fail on a doctored one.

func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

func TestCheckLatticePE(t *testing.T) {
	if err := checkLatticePE(-6.773368053); err != nil {
		t.Errorf("measured lattice energy rejected: %v", err)
	}
	for _, bad := range []float64{-6.7733681 + 2e-6, -6.7733681 - 2e-6, 0, math.NaN()} {
		if checkLatticePE(bad) == nil {
			t.Errorf("doctored PE/atom %v accepted", bad)
		}
	}
}

func TestCheckNVEDrift(t *testing.T) {
	if err := checkNVEDrift(-147800, -147790, 32000); err != nil {
		t.Errorf("3e-4 per atom rejected: %v", err)
	}
	if checkNVEDrift(-147800, -147700, 32000) == nil {
		t.Error("drift of 3e-3 per atom accepted")
	}
	if checkNVEDrift(-147800, math.NaN(), 32000) == nil {
		t.Error("NaN energy accepted")
	}
}

func TestCheckSameThermo(t *testing.T) {
	th := core.Thermo{Step: 365, Temperature: 1.01, Pressure: 5.2, PotEnergy: -1e5,
		KinEnergy: 4.8e4, TotalEnergy: -5.2e4, Volume: 3.8e4}
	if err := checkSameThermo(th, th); err != nil {
		t.Errorf("identical thermo rejected: %v", err)
	}
	for name, doctor := range map[string]func(*core.Thermo){
		"step":        func(x *core.Thermo) { x.Step++ },
		"temperature": func(x *core.Thermo) { x.Temperature = nextUp(x.Temperature) },
		"pressure":    func(x *core.Thermo) { x.Pressure = nextUp(x.Pressure) },
		"pe":          func(x *core.Thermo) { x.PotEnergy = nextUp(x.PotEnergy) },
		"ke":          func(x *core.Thermo) { x.KinEnergy = nextUp(x.KinEnergy) },
		"etot":        func(x *core.Thermo) { x.TotalEnergy = nextUp(x.TotalEnergy) },
		"volume":      func(x *core.Thermo) { x.Volume = nextUp(x.Volume) },
	} {
		got := th
		doctor(&got)
		if checkSameThermo(th, got) == nil {
			t.Errorf("thermo with %s one ulp off accepted", name)
		}
	}
}

func TestCheckConserved(t *testing.T) {
	if err := checkConserved(5184, 5184, 1e-13, -2e-13, 2900); err != nil {
		t.Errorf("rounding-level charge change rejected: %v", err)
	}
	if checkConserved(5184, 5183, 0, 0, 2900) == nil {
		t.Error("lost atom accepted")
	}
	if checkConserved(5184, 5184, 0, 0.4238, 2900) == nil {
		t.Error("gained charge accepted")
	}
}

func TestCheckRelClose(t *testing.T) {
	if err := checkRelClose("pe", -12345.678, -12345.678*(1+5e-10), 1e-9); err != nil {
		t.Errorf("5e-10 relative difference rejected: %v", err)
	}
	if checkRelClose("pe", -12345.678, -12345.678*(1+2e-9), 1e-9) == nil {
		t.Error("2e-9 relative difference accepted")
	}
	if checkRelClose("pe", -12345.678, math.NaN(), 1e-9) == nil {
		t.Error("NaN accepted")
	}
}

func TestCheckJob(t *testing.T) {
	want := serve.Frame{Step: 100, Temp: 0.75, Prs: 1.2, PE: -2900, KE: 560, Etot: -2340}
	good := want
	if err := checkJob("j-1", serve.StateDone, &good, want); err != nil {
		t.Errorf("matching job rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		state serve.State
		frame *serve.Frame
	}{
		"failed":    {serve.StateFailed, &good},
		"cancelled": {serve.StateCancelled, &good},
		"no frame":  {serve.StateDone, nil},
		"wrong step": {serve.StateDone, func() *serve.Frame {
			f := want
			f.Step = 90
			return &f
		}()},
		"pe one ulp off": {serve.StateDone, func() *serve.Frame {
			f := want
			f.PE = nextUp(f.PE)
			return &f
		}()},
		"temperature one ulp off": {serve.StateDone, func() *serve.Frame {
			f := want
			f.Temp = nextUp(f.Temp)
			return &f
		}()},
	} {
		if checkJob("j-1", tc.state, tc.frame, want) == nil {
			t.Errorf("%s job accepted", name)
		}
	}
}

// A failed check makes the run incorrect, counts as a failed operation,
// and is printed; the result line still carries every metric.
func TestFailedCheckMarksRunIncorrect(t *testing.T) {
	r := fullReport(endToEnd)
	r.attempted = 10
	r.check("lattice_pe", checkLatticePE(-6.7))
	r.check("nve_energy_drift", nil)
	if r.correct() {
		t.Fatal("run with a failed check reported correct")
	}
	var b strings.Builder
	if err := emit(&b, r, false); err != nil {
		t.Fatal(err)
	}
	res := lastResult(t, b.String())
	if res.Correct || res.Failed != 1 || res.Attempted != 12 {
		t.Errorf("result %+v, want correct=false failed=1 attempted=12", res)
	}
	if !strings.Contains(b.String(), "check lattice_pe") || !strings.Contains(b.String(), "FAIL") {
		t.Errorf("failed check not printed:\n%s", b.String())
	}
}
