package script_test

import (
	"math"
	"os"
	"strings"
	"testing"

	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/dump"
	"gomd/internal/script"
	"gomd/internal/workload"
)

// ljMelt is the LAMMPS bench in.lj input, nearly verbatim.
const ljMelt = `
# 3d Lennard-Jones melt
units        lj
atom_style   atomic
lattice      fcc 0.8442
region       box block 0 10 0 10 0 10
create_box   1 box
create_atoms 1 box
mass         1 1.0
velocity     all create 1.44 87287
pair_style   lj/cut 2.5
pair_coeff   1 1 1.0 1.0
neighbor     0.3 bin
neigh_modify delay 0 every 20 check no
fix          1 all nve
thermo       50
timestep     0.005
run          100
`

func TestLJMeltScript(t *testing.T) {
	var out strings.Builder
	in := script.New(&out)
	if err := in.Run(strings.NewReader(ljMelt)); err != nil {
		t.Fatal(err)
	}
	sim := in.Sim()
	if sim == nil {
		t.Fatal("no simulation after run")
	}
	if sim.Store.N != 4000 {
		t.Errorf("atom count %d want 4000 (10^3 fcc cells)", sim.Store.N)
	}
	if sim.Step != 100 {
		t.Errorf("steps %d", sim.Step)
	}
	th := sim.ComputeThermo()
	if th.Temperature < 0.4 || th.Temperature > 1.5 {
		t.Errorf("melt temperature %v implausible", th.Temperature)
	}
	if !strings.Contains(out.String(), "Created 4000 atoms") {
		t.Errorf("missing creation output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "run complete") {
		t.Errorf("missing run output")
	}
}

// TestScriptMatchesWorkload: the scripted LJ system must agree with the
// programmatic workload builder on density and initial temperature.
func TestScriptMatchesWorkload(t *testing.T) {
	var out strings.Builder
	in := script.New(&out)
	if err := in.Run(strings.NewReader(strings.Replace(ljMelt, "run          100", "run 0", 1))); err != nil {
		// run 0 is valid: build and evaluate once.
		t.Fatal(err)
	}
	sim := in.Sim()
	cfg, st := workload.MustBuild(workload.LJ, workload.Options{Atoms: 4000})
	if sim.Store.N != st.N {
		t.Errorf("atom counts differ: script %d workload %d", sim.Store.N, st.N)
	}
	vs := sim.Box.Volume()
	vw := cfg.Box.Volume()
	if math.Abs(vs-vw) > 1e-9*vw {
		t.Errorf("box volumes differ: %v vs %v", vs, vw)
	}
}

func TestContinuationAndComments(t *testing.T) {
	src := `
units lj
lattice fcc 0.8442   # density in reduced units
region box &
  block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 1.0
pair_style lj/cut 2.5
pair_coeff * * 1.0 1.0
fix 1 all nve
run 1
`
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if in.Sim().Store.N != 256 {
		t.Errorf("atoms %d want 256", in.Sim().Store.N)
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	src := "units lj\nbogus_command 1 2 3\n"
	err := script.New(nil).Run(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}

func TestRunWithoutSetupFails(t *testing.T) {
	for _, src := range []string{
		"run 10\n",
		"units lj\nrun 10\n",
		"units lj\nlattice fcc 0.8\nregion b block 0 2 0 2 0 2\ncreate_box 1 b\ncreate_atoms 1 b\nrun 5\n",
	} {
		if err := script.New(nil).Run(strings.NewReader(src)); err == nil {
			t.Errorf("incomplete script accepted: %q", src)
		}
	}
}

func TestGranularScript(t *testing.T) {
	src := `
units lj
lattice sc 1.0
region box block 0 6 0 6 0 6
create_box 1 box
create_atoms 1 box
mass 1 1.0
pair_style gran/hooke/history
neighbor 0.1 bin
fix 1 all nve
fix 2 all gravity 1.0 chute 26.0
fix 3 all wall/gran
timestep 0.0001
run 20
`
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if in.Sim().Store.N != 216 {
		t.Errorf("grains %d", in.Sim().Store.N)
	}
}

func TestMultipleRuns(t *testing.T) {
	src := strings.Replace(ljMelt, "run          100", "run 10\nrun 15", 1)
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if in.Sim().Step != 25 {
		t.Errorf("steps %d want 25", in.Sim().Step)
	}
}

func TestEAMScript(t *testing.T) {
	src := `
units metal
lattice fcc 3.615
region box block 0 5 0 5 0 5
create_box 1 box
create_atoms 1 box
mass 1 63.55
velocity all create 1600 12345
pair_style eam
neighbor 1.0 bin
neigh_modify delay 5 every 1
fix 1 all nve
timestep 0.005
run 20
`
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	sim := in.Sim()
	if sim.Store.N != 500 {
		t.Errorf("Cu atoms %d", sim.Store.N)
	}
	th := sim.ComputeThermo()
	if th.PotEnergy >= 0 {
		t.Errorf("metal PE %v should be cohesive (negative)", th.PotEnergy)
	}
	var _ *core.Simulation = sim
}

// TestRhodoLikeScript drives the charged-molecular path: charmm pair
// style, pppm kspace, npt fix. (Charges default to zero in scripted
// systems, so the k-space solve is trivial but the full pipeline runs.)
func TestRhodoLikeScript(t *testing.T) {
	src := `
units real
lattice sc 3.1
region box block 0 6 0 6 0 6
create_box 2 box
create_atoms 1 box
mass 1 15.9994
mass 2 1.008
velocity all create 300.0 4928459
pair_style lj/charmm/coul/long 8.0 10.0
pair_coeff 1 1 0.1553 3.166
pair_coeff 2 2 0.0 1.0
kspace_style pppm 1.0e-4
neighbor 2.0 bin
neigh_modify delay 5 every 1
fix 1 all npt temp 300.0 300.0 100.0 iso 0.0 0.0 1000.0
timestep 2.0
run 5
`
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	sim := in.Sim()
	if sim.Store.N != 216 {
		t.Errorf("atoms %d", sim.Store.N)
	}
	if sim.Cfg.Kspace == nil {
		t.Error("kspace solver not wired")
	}
	if sim.Cfg.NeighDelay != 5 {
		t.Errorf("neigh delay %d", sim.Cfg.NeighDelay)
	}
}

func TestEwaldKspaceScript(t *testing.T) {
	src := `
units real
lattice sc 4.0
region box block 0 3 0 3 0 3
create_box 1 box
create_atoms 1 box
mass 1 1.0
pair_style lj/charmm/coul/long 6.0 8.0
pair_coeff 1 1 0.1 3.0
kspace_style ewald 1.0e-5
fix 1 all nve
run 2
`
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if in.Sim().Cfg.Kspace.Name() != "ewald" {
		t.Errorf("solver %q", in.Sim().Cfg.Kspace.Name())
	}
}

func TestScriptBadInputs(t *testing.T) {
	cases := []string{
		"units klingon\n",
		"units lj\nlattice hcp 1.0\n",
		"units lj\nlattice fcc 0.8\nregion r sphere 0 0 0 5\n",
		"units lj\nlattice fcc 0.8\nregion r block 0 2 0 2 0 2\ncreate_box 1 nope\n",
		"units lj\nmass 1 1.0\n",             // mass before create_box (type range)
		"units lj\npair_coeff 1 1 1.0 1.0\n", // coeff before style
		"units lj\nfix 1 all quantum\n",
		"units lj\ntimestep abc\n",
		"units lj\nvelocity all set 1 2 3\n",
		"units lj\nkspace_style pppm\n",
	}
	for _, src := range cases {
		if err := script.New(nil).Run(strings.NewReader(src)); err == nil {
			t.Errorf("bad script accepted: %q", src)
		}
	}
}

func TestCreateAtomsRegionSubset(t *testing.T) {
	src := `
units lj
lattice sc 1.0
region box block 0 6 0 6 0 6
region lower block 0 6 0 6 0 3
create_box 1 box
create_atoms 1 region lower
mass 1 1.0
pair_style lj/cut 1.5
pair_coeff * * 1.0 1.0
fix 1 all nve
run 1
`
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if n := in.Sim().Store.N; n != 108 {
		t.Errorf("lower-half atoms %d want 108", n)
	}
}

func TestDumpAndRestartCommands(t *testing.T) {
	dir := t.TempDir()
	traj := dir + "/melt.xyz"
	rest := dir + "/melt.restart"
	src := `
units lj
lattice fcc 0.8442
region box block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 11
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
fix 1 all nve
dump 1 all xyz 5 ` + traj + `
run 10
write_restart ` + rest + `
`
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traj)
	if err != nil {
		t.Fatal(err)
	}
	// Two frames (steps 5 and 10), each 256 atoms + 2 header lines.
	lines := strings.Count(string(data), "\n")
	if lines != 2*(256+2) {
		t.Errorf("trajectory lines %d want %d", lines, 2*(256+2))
	}
	ck, err := ckpt.ReadFile(rest)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 10 || ck.Ranks != 1 || len(ck.PerRank[0].Atoms) != 256 {
		t.Errorf("restart step=%d ranks=%d atoms=%d", ck.Step, ck.Ranks, len(ck.PerRank[0].Atoms))
	}
}

func TestMorseNVTScript(t *testing.T) {
	src := `
units lj
lattice fcc 0.8442
region box block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.0 77
pair_style morse 3.0
pair_coeff * * 1.0 2.0 1.1
fix 1 all nvt temp 1.0 1.0 0.5
run 20
`
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if in.Sim().Cfg.Pair.Name() != "morse" {
		t.Errorf("pair %q", in.Sim().Cfg.Pair.Name())
	}
}

// TestReadDataScript: a molecular system written as a data file drives a
// scripted run end to end (the standard LAMMPS workflow for topologies
// that create_atoms cannot build).
func TestReadDataScript(t *testing.T) {
	dir := t.TempDir()
	dataPath := dir + "/chain.data"

	// Build a small FENE melt and save it as a data file.
	cfg, st := workload.MustBuild(workload.Chain, workload.Options{Atoms: 600, Seed: 3})
	f, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dump.WriteData(f, st, cfg.Box, cfg.Mass); err != nil {
		t.Fatal(err)
	}
	f.Close()

	src := `
units lj
read_data ` + dataPath + `
pair_style lj/cut 1.122462
pair_coeff * * 1.0 1.0
bond_style fene
bond_coeff 1 30.0 1.5 1.0 1.0
neighbor 0.4 bin
fix 1 all nve/limit 0.1
timestep 0.005
run 10
write_data ` + dir + `/out.data
`
	in := script.New(nil)
	if err := in.Run(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if in.Sim().Store.N != st.N {
		t.Errorf("atoms %d vs %d", in.Sim().Store.N, st.N)
	}
	// Bonds survived into the scripted run... indirectly: write_data
	// output must contain a Bonds section.
	out, err := os.ReadFile(dir + "/out.data")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "Bonds") {
		t.Error("scripted system lost its bonds")
	}
	if len(in.Sim().Cfg.Bonds) != 1 || in.Sim().Cfg.Bonds[0].Name() != "fene" {
		t.Errorf("bond style not wired: %+v", in.Sim().Cfg.Bonds)
	}
	if in.Sim().Counters.BondTerms == 0 {
		t.Error("no bond terms evaluated in scripted run")
	}
}
