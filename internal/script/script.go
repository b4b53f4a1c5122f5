// Package script interprets a LAMMPS-style input script — the lingua
// franca the paper's benchmark inputs are written in — and drives the
// gomd engine with it. The supported command subset covers the five
// bench inputs: units, lattice, region, create_box/create_atoms, mass,
// velocity create, pair_style/pair_coeff, neighbor/neigh_modify,
// kspace_style, fix, timestep, thermo, run, and log/print.
//
// Scripts are line-oriented: `#` starts a comment, `&` at end of line
// continues onto the next, tokens are whitespace-separated.
package script

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"gomd/internal/atom"
	"gomd/internal/bond"
	"gomd/internal/box"
	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/dump"
	"gomd/internal/fix"
	"gomd/internal/kspace"
	"gomd/internal/lattice"
	"gomd/internal/pair"
	"gomd/internal/rng"
	"gomd/internal/units"
	"gomd/internal/vec"
)

// Interp holds the accumulating state of one script execution.
type Interp struct {
	// Out receives thermo and print output (defaults to io.Discard).
	Out io.Writer

	units   units.System
	hasUnit bool

	latStyle lattice.Style
	latA     float64 // lattice constant
	hasLat   bool

	// region "block" bounds in lattice units.
	regions map[string][2]vec.V3

	bx       box.Box
	hasBox   bool
	ntypes   int
	masses   []float64
	st       *atom.Store
	pairSty  pair.Style
	coeffSet bool
	skin     float64
	every    int
	delay    int
	noCheck  bool
	kspaceS  kspace.Solver
	bondSty  []bond.Style
	fixes    []fix.Fix
	dt       float64
	thermoN  int

	sim *Simulation

	// dump settings: format ("xyz" or "custom"), interval, path.
	dumpEvery  int
	dumpFormat string
	dumpPath   string

	line int
}

// Simulation wraps the constructed core.Simulation once the first `run`
// executes.
type Simulation = core.Simulation

// New returns an empty interpreter.
func New(out io.Writer) *Interp {
	if out == nil {
		out = io.Discard
	}
	return &Interp{
		Out:     out,
		regions: map[string][2]vec.V3{},
		skin:    0.3,
		every:   1,
	}
}

// Sim exposes the running simulation (nil before the first `run`).
func (in *Interp) Sim() *core.Simulation { return in.sim }

// Run executes a whole script.
func (in *Interp) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cont strings.Builder
	for sc.Scan() {
		in.line++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if strings.HasSuffix(line, "&") {
			cont.WriteString(strings.TrimSuffix(line, "&"))
			cont.WriteByte(' ')
			continue
		}
		if cont.Len() > 0 {
			line = cont.String() + line
			cont.Reset()
		}
		if line == "" {
			continue
		}
		if err := in.exec(strings.Fields(line)); err != nil {
			return fmt.Errorf("line %d: %w", in.line, err)
		}
	}
	return sc.Err()
}

func (in *Interp) exec(tok []string) error {
	switch tok[0] {
	case "units":
		return in.cmdUnits(tok[1:])
	case "atom_style":
		return nil // atomic/granular storage is uniform here
	case "lattice":
		return in.cmdLattice(tok[1:])
	case "region":
		return in.cmdRegion(tok[1:])
	case "create_box":
		return in.cmdCreateBox(tok[1:])
	case "create_atoms":
		return in.cmdCreateAtoms(tok[1:])
	case "mass":
		return in.cmdMass(tok[1:])
	case "velocity":
		return in.cmdVelocity(tok[1:])
	case "pair_style":
		return in.cmdPairStyle(tok[1:])
	case "pair_coeff":
		return in.cmdPairCoeff(tok[1:])
	case "neighbor":
		return in.cmdNeighbor(tok[1:])
	case "neigh_modify":
		return in.cmdNeighModify(tok[1:])
	case "kspace_style":
		return in.cmdKspace(tok[1:])
	case "bond_style", "angle_style", "dihedral_style":
		return in.cmdBondStyle(tok[0], tok[1:])
	case "bond_coeff", "angle_coeff", "dihedral_coeff":
		return in.cmdBondCoeff(tok[0], tok[1:])
	case "fix":
		return in.cmdFix(tok[1:])
	case "timestep":
		return in.one(tok[1:], &in.dt)
	case "thermo":
		n, err := atoi(tok[1])
		in.thermoN = n
		return err
	case "print":
		fmt.Fprintln(in.Out, strings.Join(tok[1:], " "))
		return nil
	case "log", "echo", "boundary", "atom_modify", "comm_modify", "pair_modify":
		return nil // accepted for input compatibility; defaults apply
	case "read_data":
		return in.cmdReadData(tok[1:])
	case "write_data":
		return in.cmdWriteData(tok[1:])
	case "dump":
		return in.cmdDump(tok[1:])
	case "write_restart":
		return in.cmdWriteRestart(tok[1:])
	case "run":
		return in.cmdRun(tok[1:])
	default:
		return fmt.Errorf("unknown command %q", tok[0])
	}
}

func (in *Interp) cmdUnits(a []string) error {
	if len(a) != 1 {
		return fmt.Errorf("units takes one style")
	}
	switch a[0] {
	case "lj":
		in.units = units.ForStyle(units.LJ)
	case "metal":
		in.units = units.ForStyle(units.Metal)
	case "real":
		in.units = units.ForStyle(units.Real)
	default:
		return fmt.Errorf("unsupported units %q", a[0])
	}
	in.hasUnit = true
	in.dt = in.units.DefaultDt
	return nil
}

func (in *Interp) cmdLattice(a []string) error {
	if len(a) < 2 {
		return fmt.Errorf("lattice needs style and scale")
	}
	switch a[0] {
	case "fcc":
		in.latStyle = lattice.FCC
	case "bcc":
		in.latStyle = lattice.BCC
	case "sc":
		in.latStyle = lattice.SC
	default:
		return fmt.Errorf("unsupported lattice %q", a[0])
	}
	v, err := atof(a[1])
	if err != nil {
		return err
	}
	if in.units.Style == units.LJ {
		// LJ units: the scale is a reduced density.
		in.latA = lattice.CubicForDensity(in.latStyle, v)
	} else {
		// Otherwise it is the lattice constant.
		in.latA = v
	}
	in.hasLat = true
	return nil
}

func (in *Interp) cmdRegion(a []string) error {
	// region <id> block xlo xhi ylo yhi zlo zhi
	if len(a) < 8 || a[1] != "block" {
		return fmt.Errorf("only `region <id> block xlo xhi ylo yhi zlo zhi` is supported")
	}
	var b [6]float64
	for i := 0; i < 6; i++ {
		v, err := atof(a[2+i])
		if err != nil {
			return err
		}
		b[i] = v
	}
	in.regions[a[0]] = [2]vec.V3{
		vec.New(b[0], b[2], b[4]),
		vec.New(b[1], b[3], b[5]),
	}
	return nil
}

func (in *Interp) cmdCreateBox(a []string) error {
	if len(a) != 2 {
		return fmt.Errorf("create_box <ntypes> <region>")
	}
	n, err := atoi(a[0])
	if err != nil {
		return err
	}
	r, ok := in.regions[a[1]]
	if !ok {
		return fmt.Errorf("unknown region %q", a[1])
	}
	if !in.hasLat {
		return fmt.Errorf("create_box before lattice")
	}
	in.ntypes = n
	in.masses = make([]float64, n)
	for i := range in.masses {
		in.masses[i] = 1
	}
	lo := r[0].Scale(in.latA)
	hi := r[1].Scale(in.latA)
	in.bx = box.NewPeriodic(lo, hi)
	in.hasBox = true
	in.st = atom.New(1024)
	return nil
}

func (in *Interp) cmdCreateAtoms(a []string) error {
	if len(a) < 2 {
		return fmt.Errorf("create_atoms <type> box|region <id>")
	}
	if !in.hasBox {
		return fmt.Errorf("create_atoms before create_box")
	}
	typ, err := atoi(a[0])
	if err != nil {
		return err
	}
	lo, hi := in.bx.Lo, in.bx.Hi
	if a[1] == "region" {
		if len(a) < 3 {
			return fmt.Errorf("create_atoms region needs an id")
		}
		r, ok := in.regions[a[2]]
		if !ok {
			return fmt.Errorf("unknown region %q", a[2])
		}
		lo, hi = r[0].Scale(in.latA), r[1].Scale(in.latA)
	}
	nx := int(math.Round((hi.X - lo.X) / in.latA))
	ny := int(math.Round((hi.Y - lo.Y) / in.latA))
	nz := int(math.Round((hi.Z - lo.Z) / in.latA))
	pos := lattice.Generate(in.latStyle, in.latA, nx, ny, nz, lo)
	tag := int64(in.st.N)
	for _, p := range pos {
		tag++
		in.st.Add(atom.Atom{Tag: tag, Type: int32(typ), Pos: p})
	}
	fmt.Fprintf(in.Out, "Created %d atoms\n", len(pos))
	return nil
}

func (in *Interp) cmdMass(a []string) error {
	if len(a) != 2 {
		return fmt.Errorf("mass <type> <m>")
	}
	t, err := atoi(a[0])
	if err != nil {
		return err
	}
	m, err := atof(a[1])
	if err != nil {
		return err
	}
	if t < 1 || t > in.ntypes {
		return fmt.Errorf("type %d out of range", t)
	}
	in.masses[t-1] = m
	return nil
}

func (in *Interp) cmdVelocity(a []string) error {
	// velocity all create <T> <seed>
	if len(a) < 4 || a[0] != "all" || a[1] != "create" {
		return fmt.Errorf("only `velocity all create <T> <seed>` is supported")
	}
	T, err := atof(a[2])
	if err != nil {
		return err
	}
	seed, err := atoi(a[3])
	if err != nil {
		return err
	}
	masses := make([]float64, in.st.N)
	for i := 0; i < in.st.N; i++ {
		masses[i] = in.masses[in.st.Type[i]-1]
	}
	vel := lattice.MaxwellVelocities(rng.New(uint64(seed)), masses, T, in.units.Boltz, in.units.MVV2E)
	copy(in.st.Vel, vel)
	return nil
}

func (in *Interp) cmdPairStyle(a []string) error {
	if len(a) < 1 {
		return fmt.Errorf("pair_style needs a style")
	}
	switch a[0] {
	case "lj/cut":
		if len(a) < 2 {
			return fmt.Errorf("lj/cut needs a cutoff")
		}
		rc, err := atof(a[1])
		if err != nil {
			return err
		}
		p := pair.NewLJCut(1, 1, rc, pair.Double)
		p.Eps = make([][]float64, in.ntypes)
		p.Sigma = make([][]float64, in.ntypes)
		for i := range p.Eps {
			p.Eps[i] = make([]float64, in.ntypes)
			p.Sigma[i] = make([]float64, in.ntypes)
		}
		in.pairSty = p
	case "lj/charmm/coul/long":
		if len(a) < 3 {
			return fmt.Errorf("lj/charmm/coul/long needs inner and outer cutoffs")
		}
		inner, err := atof(a[1])
		if err != nil {
			return err
		}
		outer, err := atof(a[2])
		if err != nil {
			return err
		}
		eps := make([]float64, in.ntypes)
		sig := make([]float64, in.ntypes)
		in.pairSty = pair.NewCharmm(eps, sig, inner, outer, pair.Double)
	case "morse":
		if len(a) < 2 {
			return fmt.Errorf("morse needs a cutoff")
		}
		rc, err := atof(a[1])
		if err != nil {
			return err
		}
		in.pairSty = &pair.Morse{RCut: rc, Prec: pair.Double}
	case "eam":
		in.pairSty = pair.NewEAMCopper(pair.Double)
		in.coeffSet = true
	case "gran/hooke/history":
		in.pairSty = pair.NewGranChute()
		in.coeffSet = true
	default:
		return fmt.Errorf("unsupported pair_style %q", a[0])
	}
	return nil
}

func (in *Interp) cmdPairCoeff(a []string) error {
	// pair_coeff <i> <j> <eps> <sigma>  (or `* *` for all)
	if in.pairSty == nil {
		return fmt.Errorf("pair_coeff before pair_style")
	}
	switch p := in.pairSty.(type) {
	case *pair.Morse:
		// pair_coeff * * D0 alpha r0
		if len(a) < 5 {
			return fmt.Errorf("pair_coeff * * D0 alpha r0")
		}
		var err error
		if p.D0, err = atof(a[2]); err != nil {
			return err
		}
		if p.Alpha, err = atof(a[3]); err != nil {
			return err
		}
		if p.R0, err = atof(a[4]); err != nil {
			return err
		}
		in.coeffSet = true
	case *pair.LJCut:
		if len(a) < 4 {
			return fmt.Errorf("pair_coeff i j eps sigma")
		}
		eps, err := atof(a[2])
		if err != nil {
			return err
		}
		sig, err := atof(a[3])
		if err != nil {
			return err
		}
		apply := func(i, j int) {
			p.Eps[i][j], p.Eps[j][i] = eps, eps
			p.Sigma[i][j], p.Sigma[j][i] = sig, sig
		}
		if a[0] == "*" {
			for i := 0; i < in.ntypes; i++ {
				for j := i; j < in.ntypes; j++ {
					apply(i, j)
				}
			}
		} else {
			i, err := atoi(a[0])
			if err != nil {
				return err
			}
			j, err := atoi(a[1])
			if err != nil {
				return err
			}
			apply(i-1, j-1)
		}
		in.coeffSet = true
	case *pair.CharmmCoulLong:
		if len(a) < 4 {
			return fmt.Errorf("pair_coeff i j eps sigma")
		}
		eps, err := atof(a[2])
		if err != nil {
			return err
		}
		sig, err := atof(a[3])
		if err != nil {
			return err
		}
		i, err := atoi(a[0])
		if err != nil {
			return err
		}
		p.Eps[i-1][i-1] = eps
		p.Sigma[i-1][i-1] = sig
		// Re-mix arithmetically.
		for x := 0; x < in.ntypes; x++ {
			for y := 0; y < in.ntypes; y++ {
				p.Eps[x][y] = math.Sqrt(p.Eps[x][x] * p.Eps[y][y])
				p.Sigma[x][y] = 0.5 * (p.Sigma[x][x] + p.Sigma[y][y])
			}
		}
		in.coeffSet = true
	default:
		// eam / granular take no coefficients here.
	}
	return nil
}

func (in *Interp) cmdNeighbor(a []string) error {
	if len(a) < 1 {
		return fmt.Errorf("neighbor <skin> [bin]")
	}
	return in.one(a[:1], &in.skin)
}

func (in *Interp) cmdNeighModify(a []string) error {
	for i := 0; i+1 < len(a); i += 2 {
		switch a[i] {
		case "every":
			n, err := atoi(a[i+1])
			if err != nil {
				return err
			}
			in.every = n
		case "delay":
			n, err := atoi(a[i+1])
			if err != nil {
				return err
			}
			in.delay = n
		case "check":
			in.noCheck = a[i+1] == "no"
		}
	}
	return nil
}

func (in *Interp) cmdKspace(a []string) error {
	if len(a) < 2 || a[0] != "pppm" && a[0] != "ewald" {
		return fmt.Errorf("kspace_style pppm|ewald <accuracy>")
	}
	acc, err := atof(a[1])
	if err != nil {
		return err
	}
	rc := 10.0
	if ch, ok := in.pairSty.(*pair.CharmmCoulLong); ok {
		rc = ch.RCoul
	}
	if a[0] == "pppm" {
		in.kspaceS = kspace.NewPPPM(acc, rc)
	} else {
		in.kspaceS = kspace.NewEwald(acc, rc)
	}
	return nil
}

// cmdBondStyle registers a bonded style; coefficients follow via the
// matching *_coeff command.
func (in *Interp) cmdBondStyle(cmd string, a []string) error {
	if len(a) < 1 {
		return fmt.Errorf("%s needs a style", cmd)
	}
	switch cmd + " " + a[0] {
	case "bond_style fene":
		in.bondSty = append(in.bondSty, bond.NewFENEChain())
	case "bond_style harmonic":
		in.bondSty = append(in.bondSty, &bond.Harmonic{})
	case "angle_style harmonic":
		in.bondSty = append(in.bondSty, &bond.HarmonicAngle{})
	case "dihedral_style charmm", "dihedral_style harmonic":
		in.bondSty = append(in.bondSty, &bond.DihedralHarmonic{N: 1})
	default:
		return fmt.Errorf("unsupported %s %q", cmd, a[0])
	}
	return nil
}

// cmdBondCoeff sets coefficients on the most recent style of its class.
func (in *Interp) cmdBondCoeff(cmd string, a []string) error {
	find := func(match func(bond.Style) bool) bond.Style {
		for i := len(in.bondSty) - 1; i >= 0; i-- {
			if match(in.bondSty[i]) {
				return in.bondSty[i]
			}
		}
		return nil
	}
	switch cmd {
	case "bond_coeff":
		st := find(func(s bond.Style) bool {
			switch s.(type) {
			case *bond.FENE, *bond.Harmonic:
				return true
			}
			return false
		})
		switch b := st.(type) {
		case *bond.FENE:
			// bond_coeff <t> K R0 eps sigma
			if len(a) < 5 {
				return fmt.Errorf("bond_coeff <t> K R0 eps sigma for fene")
			}
			var err error
			if b.K, err = atof(a[1]); err != nil {
				return err
			}
			if b.R0, err = atof(a[2]); err != nil {
				return err
			}
			if b.Eps, err = atof(a[3]); err != nil {
				return err
			}
			if b.Sigma, err = atof(a[4]); err != nil {
				return err
			}
		case *bond.Harmonic:
			if len(a) < 3 {
				return fmt.Errorf("bond_coeff <t> K r0")
			}
			var err error
			if b.K, err = atof(a[1]); err != nil {
				return err
			}
			if b.R0, err = atof(a[2]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("bond_coeff before bond_style")
		}
	case "angle_coeff":
		st := find(func(s bond.Style) bool { _, ok := s.(*bond.HarmonicAngle); return ok })
		ang, _ := st.(*bond.HarmonicAngle)
		if ang == nil {
			return fmt.Errorf("angle_coeff before angle_style")
		}
		if len(a) < 3 {
			return fmt.Errorf("angle_coeff <t> K theta0(deg)")
		}
		var err error
		if ang.K, err = atof(a[1]); err != nil {
			return err
		}
		deg, err := atof(a[2])
		if err != nil {
			return err
		}
		ang.Theta0 = deg * math.Pi / 180
	case "dihedral_coeff":
		st := find(func(s bond.Style) bool { _, ok := s.(*bond.DihedralHarmonic); return ok })
		dh, _ := st.(*bond.DihedralHarmonic)
		if dh == nil {
			return fmt.Errorf("dihedral_coeff before dihedral_style")
		}
		if len(a) < 4 {
			return fmt.Errorf("dihedral_coeff <t> K n d(deg)")
		}
		var err error
		if dh.K, err = atof(a[1]); err != nil {
			return err
		}
		n, err := atoi(a[2])
		if err != nil {
			return err
		}
		dh.N = n
		deg, err := atof(a[3])
		if err != nil {
			return err
		}
		dh.D = deg * math.Pi / 180
	}
	return nil
}

func (in *Interp) cmdFix(a []string) error {
	// fix <id> all <style> [args]
	if len(a) < 3 {
		return fmt.Errorf("fix <id> <group> <style> ...")
	}
	style := a[2]
	args := a[3:]
	switch style {
	case "nve":
		in.fixes = append(in.fixes, &fix.NVE{})
	case "nve/limit":
		if len(args) < 1 {
			return fmt.Errorf("nve/limit needs a max displacement")
		}
		v, err := atof(args[0])
		if err != nil {
			return err
		}
		in.fixes = append(in.fixes, &fix.NVELimit{MaxDisp: v})
	case "langevin":
		if len(args) < 3 {
			return fmt.Errorf("langevin <Tstart> <Tstop> <damp>")
		}
		T, err := atof(args[0])
		if err != nil {
			return err
		}
		damp, err := atof(args[2])
		if err != nil {
			return err
		}
		in.fixes = append(in.fixes, &fix.Langevin{T: T, Damp: damp})
	case "nvt":
		// fix 1 all nvt temp T T tdamp
		if len(args) < 4 || args[0] != "temp" {
			return fmt.Errorf("nvt temp <Tstart> <Tstop> <damp>")
		}
		f := &fix.NVT{}
		var err error
		if f.TStart, err = atof(args[1]); err != nil {
			return err
		}
		if f.TStop, err = atof(args[2]); err != nil {
			return err
		}
		if f.TDamp, err = atof(args[3]); err != nil {
			return err
		}
		in.fixes = append(in.fixes, f)
	case "npt":
		// fix 1 all npt temp T T tdamp iso P P pdamp
		f := &fix.NPT{}
		for i := 0; i < len(args); i++ {
			switch args[i] {
			case "temp":
				if i+3 >= len(args) {
					return fmt.Errorf("npt temp needs 3 values")
				}
				var err error
				if f.TStart, err = atof(args[i+1]); err != nil {
					return err
				}
				if f.TStop, err = atof(args[i+2]); err != nil {
					return err
				}
				if f.TDamp, err = atof(args[i+3]); err != nil {
					return err
				}
				i += 3
			case "iso":
				if i+3 >= len(args) {
					return fmt.Errorf("npt iso needs 3 values")
				}
				var err error
				if f.PTarget, err = atof(args[i+1]); err != nil {
					return err
				}
				if f.PDamp, err = atof(args[i+3]); err != nil {
					return err
				}
				i += 3
			}
		}
		in.fixes = append(in.fixes, f)
	case "gravity":
		// fix g all gravity <mag> chute <angle>
		if len(args) < 3 || args[1] != "chute" {
			return fmt.Errorf("gravity <mag> chute <angle>")
		}
		mag, err := atof(args[0])
		if err != nil {
			return err
		}
		ang, err := atof(args[2])
		if err != nil {
			return err
		}
		in.fixes = append(in.fixes, &fix.Gravity{Mag: mag, Angle: ang})
	case "wall/gran":
		in.fixes = append(in.fixes, fix.NewWallGranChute())
	default:
		return fmt.Errorf("unsupported fix style %q", style)
	}
	return nil
}

func (in *Interp) cmdRun(a []string) error {
	if len(a) != 1 {
		return fmt.Errorf("run <steps>")
	}
	n, err := atoi(a[0])
	if err != nil {
		return err
	}
	if in.sim == nil {
		if err := in.finalize(); err != nil {
			return err
		}
	}
	if in.dumpEvery > 0 {
		for done := 0; done < n; {
			chunk := in.dumpEvery
			if done+chunk > n {
				chunk = n - done
			}
			in.sim.Run(chunk)
			done += chunk
			if err := in.writeDumpFrames(); err != nil {
				return err
			}
		}
	} else {
		in.sim.Run(n)
	}
	th := in.sim.ComputeThermo()
	fmt.Fprintf(in.Out, "run complete: step %d T %.4f PE %.6g E %.6g\n",
		th.Step, th.Temperature, th.PotEnergy, th.TotalEnergy)
	return nil
}

// cmdReadData loads a LAMMPS data file: box, masses, atoms, topology.
func (in *Interp) cmdReadData(a []string) error {
	if len(a) != 1 {
		return fmt.Errorf("read_data <file>")
	}
	f, err := os.Open(a[0])
	if err != nil {
		return err
	}
	defer f.Close()
	df, err := dump.ReadData(f)
	if err != nil {
		return err
	}
	in.bx = df.Box
	in.hasBox = true
	in.masses = df.Masses
	in.ntypes = len(df.Masses)
	in.st = df.Store()
	fmt.Fprintf(in.Out, "Read %d atoms\n", in.st.N)
	return nil
}

// cmdWriteData saves the current system as a data file.
func (in *Interp) cmdWriteData(a []string) error {
	if len(a) != 1 {
		return fmt.Errorf("write_data <file>")
	}
	if in.st == nil {
		return fmt.Errorf("no system to write")
	}
	bx := in.bx
	st := in.st
	if in.sim != nil {
		bx = in.sim.Box
		st = in.sim.Store
	}
	f, err := os.Create(a[0])
	if err != nil {
		return err
	}
	defer f.Close()
	return dump.WriteData(f, st, bx, in.masses)
}

// cmdDump configures trajectory output:
// dump <id> all xyz|custom <every> <file>
func (in *Interp) cmdDump(a []string) error {
	if len(a) < 5 {
		return fmt.Errorf("dump <id> <group> xyz|custom <every> <file>")
	}
	switch a[2] {
	case "xyz", "custom":
		in.dumpFormat = a[2]
	default:
		return fmt.Errorf("unsupported dump style %q", a[2])
	}
	n, err := atoi(a[3])
	if err != nil {
		return err
	}
	in.dumpEvery = n
	in.dumpPath = a[4]
	return nil
}

// cmdWriteRestart saves a restart: write_restart <file>. The file is a
// 1-rank GMCK checkpoint written through the checkpoint writer (atomic,
// fsync'd, CRC-checked) that ckpt.ReadFile and mdrun -restart read.
func (in *Interp) cmdWriteRestart(a []string) error {
	if len(a) != 1 {
		return fmt.Errorf("write_restart <file>")
	}
	if in.sim == nil {
		if err := in.finalize(); err != nil {
			return err
		}
	}
	w := ckpt.NewWriter(a[0], 1)
	w.SetGrid([3]int{1, 1, 1})
	return w.Sink()(in.sim)
}

// writeDumpFrames appends trajectory frames during a run.
func (in *Interp) writeDumpFrames() error {
	if in.dumpEvery <= 0 || in.dumpPath == "" {
		return nil
	}
	f, err := os.OpenFile(in.dumpPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if in.dumpFormat == "xyz" {
		return dump.WriteXYZ(f, in.sim.Store, in.sim.Box, in.sim.Step)
	}
	return dump.WriteLAMMPSDump(f, in.sim.Store, in.sim.Box, in.sim.Step)
}

// finalize assembles the core.Simulation from accumulated state.
func (in *Interp) finalize() error {
	switch {
	case !in.hasUnit:
		return fmt.Errorf("no units command")
	case !in.hasBox || in.st == nil || in.st.N == 0:
		return fmt.Errorf("no atoms created")
	case in.pairSty == nil || !in.coeffSet:
		return fmt.Errorf("pair style/coefficients incomplete")
	case len(in.fixes) == 0:
		return fmt.Errorf("no integrator fix")
	}
	cfg := core.Config{
		Name:         "script",
		Units:        in.units,
		Box:          in.bx,
		Mass:         in.masses,
		Pair:         in.pairSty,
		Bonds:        in.bondSty,
		Kspace:       in.kspaceS,
		Fixes:        in.fixes,
		Dt:           in.dt,
		Skin:         in.skin,
		NeighEvery:   in.every,
		NeighDelay:   in.delay,
		NeighNoCheck: in.noCheck,
		Seed:         12345,
		ThermoEvery:  in.thermoN,
		ThermoTo:     in.Out,
	}
	in.sim = core.New(cfg, in.st)
	return nil
}

func (in *Interp) one(a []string, dst *float64) error {
	if len(a) < 1 {
		return fmt.Errorf("missing value")
	}
	v, err := atof(a[0])
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func atof(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

func atoi(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return v, nil
}
