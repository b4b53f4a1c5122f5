// Package ckpt implements versioned binary checkpoints for
// fault-tolerant runs: a periodic snapshot of the full dynamic state of
// every rank — positions, velocities, forces, box, RNG streams, fix
// integrator state, and granular contact history — written atomically
// so a supervisor (internal/harness) can restart a crashed run from the
// last completed snapshot with a bit-exact continuation.
//
// Bit-exactness is the design center. A checkpoint step forces a
// neighbor rebuild (see core.Config.CheckpointEvery), so the snapshot
// captures post-migration, wrapped, freshly-ordered stores; the restore
// path replays exactly one rebuild (deterministic over that state) and
// then overwrites forces and energy with the checkpointed values rather
// than recomputing them, because PostForce fixes like Langevin fold
// RNG-drawn noise into the forces and replaying the draws would advance
// the restored RNG stream twice. The restarted run must keep the same
// rank count, worker count, and CheckpointEvery as the original.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gomd/internal/atom"
	"gomd/internal/box"
	"gomd/internal/core"
	"gomd/internal/rng"
	"gomd/internal/vec"
)

// GMCK format versions. v2 adds the integrity layer: a CRC32 (IEEE)
// after the header and after every rank section (covering that
// section's bytes), plus a footer of {footer magic, payload byte count,
// whole-file CRC} so truncation and bit-flips are detected before a
// supervisor restores garbage. v1 files (no CRCs, no footer) are still
// readable.
const (
	ckptMagic       = 0x474d434b // "GMCK"
	ckptVersion     = 2
	ckptV1          = 1
	ckptFooterMagic = 0x4b434d47 // "KCMG": marks a complete v2 file
)

// IntegrityError reports a checkpoint whose bytes were readable but
// failed verification (CRC or footer mismatch) — corruption, as opposed
// to plain truncation/IO errors.
type IntegrityError struct {
	Section string // "header", "rank N", "footer"
	Detail  string
}

// Error implements error.
func (e *IntegrityError) Error() string {
	return fmt.Sprintf("ckpt: %s verification failed: %s", e.Section, e.Detail)
}

// crcWriter tees every written byte into the running section and file
// hashes (the v2 integrity layer) while counting payload bytes.
type crcWriter struct {
	w    io.Writer
	sect hash.Hash32
	file hash.Hash32
	n    int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sect.Write(p[:n])
	cw.file.Write(p[:n])
	cw.n += int64(n)
	return n, err
}

// crcReader mirrors crcWriter on the read side.
type crcReader struct {
	r    io.Reader
	sect hash.Hash32
	file hash.Hash32
	n    int64
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.sect.Write(p[:n])
	cr.file.Write(p[:n])
	cr.n += int64(n)
	return n, err
}

// HistoryEntry is one granular contact-history record: the shear
// accumulator of the contact seen from Owner's perspective.
type HistoryEntry struct {
	Owner, Partner int64
	Shear          vec.V3
}

// Rank is one rank's share of a checkpoint. Atoms are in store order
// (which the forced rebuild makes canonical for the step); Force holds
// the post-PostForce forces of the owned atoms in the same order.
type Rank struct {
	Atoms      []atom.Atom
	Force      []vec.V3
	LastPE     float64
	LastVirial float64
	RNG        rng.State
	FixState   [][]float64
	History    []HistoryEntry
}

// Checkpoint is a full-run snapshot at the end of a step.
type Checkpoint struct {
	Step     int64
	Ranks    int
	Grid     [3]int
	Box      box.Box
	SetupBox box.Box
	Q2Setup  float64
	PerRank  []Rank
}

// historyCarrier matches the pair styles with per-contact state
// (GranHookeHistory); kept structurally identical to the domain
// package's private copy.
type historyCarrier interface {
	ExtractHistory(tag int64) map[int64]vec.V3
	InjectHistory(tag int64, h map[int64]vec.V3)
}

// CaptureRank snapshots one simulation's dynamic state. Called at the
// end of a checkpoint step, after the step's forced rebuild.
func CaptureRank(s *core.Simulation) Rank {
	st := s.Store
	r := Rank{
		Atoms:      make([]atom.Atom, st.N),
		Force:      append([]vec.V3(nil), st.Force[:st.N]...),
		LastPE:     s.LastPE,
		LastVirial: s.LastVirial,
		RNG:        s.RNG.State(),
		FixState:   s.FixStates(),
	}
	for i := 0; i < st.N; i++ {
		r.Atoms[i] = st.Extract(i)
	}
	if hc, ok := s.Cfg.Pair.(historyCarrier); ok {
		for i := 0; i < st.N; i++ {
			tag := st.Tag[i]
			h := hc.ExtractHistory(tag)
			if len(h) == 0 {
				continue
			}
			hc.InjectHistory(tag, h) // extraction is destructive; put it back
			partners := make([]int64, 0, len(h))
			for p := range h {
				partners = append(partners, p)
			}
			sort.Slice(partners, func(a, b int) bool { return partners[a] < partners[b] })
			for _, p := range partners {
				r.History = append(r.History, HistoryEntry{Owner: tag, Partner: p, Shear: h[p]})
			}
		}
	}
	return r
}

// ApplyHistory re-injects checkpointed contact history into the
// simulation's pair style (no-op for styles without history).
func ApplyHistory(s *core.Simulation, hist []HistoryEntry) {
	hc, ok := s.Cfg.Pair.(historyCarrier)
	if !ok || len(hist) == 0 {
		return
	}
	for i := 0; i < len(hist); {
		owner := hist[i].Owner
		h := make(map[int64]vec.V3)
		for ; i < len(hist) && hist[i].Owner == owner; i++ {
			h[hist[i].Partner] = hist[i].Shear
		}
		hc.InjectHistory(owner, h)
	}
}

// ShardSet views the checkpoint as one generation covering every rank —
// the form domain.RestoreOnWorld restores. Ranks points into PerRank
// (no copy); NGlobal is the sum of the per-rank atom counts.
func (ck *Checkpoint) ShardSet() *ShardSet {
	ss := &ShardSet{
		Step:      ck.Step,
		WorldSize: ck.Ranks,
		Grid:      ck.Grid,
		Box:       ck.Box,
		SetupBox:  ck.SetupBox,
		Q2Setup:   ck.Q2Setup,
		Ranks:     make(map[int]*Rank, len(ck.PerRank)),
	}
	for r := range ck.PerRank {
		ss.Ranks[r] = &ck.PerRank[r]
		ss.NGlobal += int64(len(ck.PerRank[r].Atoms))
	}
	return ss
}

// RestoreRank rebuilds rank r's simulation from the generation on
// backend be: the store in checkpointed order, the restore replay of
// setup, contact history, then the checkpointed forces, energy and
// virial. Every restore path (serial, in-process, spanning) ends here.
func (ss *ShardSet) RestoreRank(cfg core.Config, r int, be core.Backend) (*core.Simulation, error) {
	rk := ss.Ranks[r]
	if rk == nil {
		return nil, fmt.Errorf("ckpt: generation has no snapshot for rank %d", r)
	}
	st := atom.New(len(rk.Atoms))
	for _, a := range rk.Atoms {
		st.Add(a)
	}
	s, err := core.NewRestored(cfg, st, be, &core.RestoreState{
		Step:     ss.Step,
		Box:      ss.Box,
		SetupBox: ss.SetupBox,
		Q2Setup:  ss.Q2Setup,
		RNG:      rk.RNG,
		FixState: rk.FixState,
	})
	if err != nil {
		return nil, err
	}
	ApplyHistory(s, rk.History)
	if err := s.PrimeRestored(rk.Force, rk.LastPE, rk.LastVirial); err != nil {
		return nil, err
	}
	return s, nil
}

// RestoreSerial resumes a single-rank checkpoint on the serial backend:
// the inverse of a 1-rank Writer. cfg must describe the same workload
// (pair style, fixes, seed) the checkpoint was taken from.
func RestoreSerial(cfg core.Config, ck *Checkpoint) (*core.Simulation, error) {
	if ck.Ranks != 1 {
		return nil, fmt.Errorf("ckpt: checkpoint has %d ranks; serial restore needs 1 (re-decomposition is not supported)", ck.Ranks)
	}
	return ck.ShardSet().RestoreRank(cfg, 0, &core.SerialBackend{})
}

// Writer is the periodic checkpoint sink of a run: every rank's
// CheckpointSink delivers its snapshot here, and when all ranks of a
// step have reported, the checkpoint is written to path atomically
// (temp file + rename), replacing the previous one. Ranks may be
// working on different checkpoint steps simultaneously (they are not
// barrier-synchronized), so assemblies are keyed by step.
type Writer struct {
	path  string
	ranks int
	keep  int
	// corrupt, when set, runs after each completed checkpoint write with
	// the step and final path — the fault injector's hook for simulating
	// on-disk corruption that the CRC layer must catch on restore.
	corrupt func(step int64, path string)

	mu      sync.Mutex
	grid    [3]int
	pending map[int64]*Checkpoint
	filled  map[int64]int
}

// NewWriter returns a writer expecting one snapshot per rank per
// checkpoint step.
func NewWriter(path string, ranks int) *Writer {
	return &Writer{
		path:    path,
		ranks:   ranks,
		keep:    1,
		pending: map[int64]*Checkpoint{},
		filled:  map[int64]int{},
	}
}

// SetKeep retains n checkpoint generations (default 1): before each
// write the existing files rotate path -> path.1 -> ... -> path.(n-1),
// so a corrupted newest generation still leaves n-1 older intact ones
// for ReadNewestValid to fall back on.
func (w *Writer) SetKeep(n int) {
	if n < 1 {
		n = 1
	}
	w.mu.Lock()
	w.keep = n
	w.mu.Unlock()
}

// SetCorruptor installs a post-write hook (see the corrupt field).
func (w *Writer) SetCorruptor(fn func(step int64, path string)) {
	w.mu.Lock()
	w.corrupt = fn
	w.mu.Unlock()
}

// SetGrid records the engine's decomposition grid (stored in the file
// so restore can rebuild per-rank coordinates).
func (w *Writer) SetGrid(g [3]int) {
	w.mu.Lock()
	w.grid = g
	w.mu.Unlock()
}

// Reset drops partially-assembled checkpoints. Call it when the run is
// rebuilt after a rank failure: ranks killed mid-assembly leave stale
// shares behind, and the restored run will re-report those steps.
func (w *Writer) Reset() {
	w.mu.Lock()
	w.pending = map[int64]*Checkpoint{}
	w.filled = map[int64]int{}
	w.mu.Unlock()
}

// Sink returns the function to install as core.Config.CheckpointSink on
// every rank of the run.
func (w *Writer) Sink() func(*core.Simulation) error {
	return func(s *core.Simulation) error {
		rk := CaptureRank(s)
		w.mu.Lock()
		defer w.mu.Unlock()
		step := s.Step
		ck := w.pending[step]
		if ck == nil {
			ck = &Checkpoint{
				Step:     step,
				Ranks:    w.ranks,
				Grid:     w.grid,
				Box:      s.Box,
				SetupBox: s.SetupBox,
				Q2Setup:  s.Q2Setup,
				PerRank:  make([]Rank, w.ranks),
			}
			w.pending[step] = ck
		}
		ck.PerRank[s.Rank()] = rk
		w.filled[step]++
		if w.filled[step] < w.ranks {
			return nil
		}
		delete(w.pending, step)
		delete(w.filled, step)
		if w.keep > 1 {
			rotate(w.path, w.keep)
		}
		if err := WriteFileAtomic(w.path, ck); err != nil {
			return err
		}
		if w.corrupt != nil {
			w.corrupt(ck.Step, w.path)
		}
		return nil
	}
}

// WriteFileAtomic writes the checkpoint to a temp file in path's
// directory and renames it over path, so a crash mid-write never
// clobbers the previous good checkpoint. The temp file is fsynced
// before the rename and the directory after it: without the first a
// host crash can "commit" a rename whose data never reached disk;
// without the second the rename itself can be lost.
func WriteFileAtomic(path string, ck *Checkpoint) error {
	return writeFileAtomicFunc(path, func(f io.Writer) error {
		return Write(f, ck)
	})
}

// writeFileAtomicFunc is the atomic-durability discipline shared by
// checkpoints, shards, and manifests: write to path.tmp via the
// serializer, fsync the file, rename over path, fsync the directory.
func writeFileAtomicFunc(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir flushes a directory's entries (the durable half of an atomic
// rename).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// GenerationPath names checkpoint generation gen of path: generation 0
// is path itself (the newest), generation g > 0 is "path.g" (older by g
// rotations).
func GenerationPath(path string, gen int) string {
	if gen <= 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, gen)
}

// rotate shifts the retained generations one slot older ahead of a new
// write: path.(keep-2) -> path.(keep-1), ..., path -> path.1. Missing
// generations are skipped; the oldest falls off the end.
func rotate(path string, keep int) {
	for g := keep - 1; g >= 1; g-- {
		src := GenerationPath(path, g-1)
		if _, err := os.Stat(src); err == nil {
			os.Rename(src, GenerationPath(path, g))
		}
	}
}

// GenError records why one checkpoint generation was rejected during a
// ReadNewestValid scan. Supervisors log every rejection: a silent
// fallback would hide corruption.
type GenError struct {
	Gen  int
	Path string
	Err  error
}

// ReadNewestValid loads the newest generation that parses and verifies,
// scanning path, path.1, ..., path.(keep-1) newest-first. It returns
// the checkpoint, its generation index, and the rejections encountered
// on the way there. When every generation is missing the error wraps
// os.ErrNotExist (the "no checkpoint yet" case supervisors restart from
// scratch on); when at least one existed but none verified, the error
// reports the corruption.
func ReadNewestValid(path string, keep int) (*Checkpoint, int, []GenError, error) {
	if keep < 1 {
		keep = 1
	}
	var fails []GenError
	missing := 0
	for g := 0; g < keep; g++ {
		p := GenerationPath(path, g)
		ck, err := ReadFile(p)
		if err == nil {
			return ck, g, fails, nil
		}
		if errors.Is(err, os.ErrNotExist) {
			missing++
			continue
		}
		fails = append(fails, GenError{Gen: g, Path: p, Err: err})
	}
	if len(fails) == 0 {
		return nil, -1, nil, fmt.Errorf("ckpt: no checkpoint at %s: %w", path, os.ErrNotExist)
	}
	return nil, -1, fails, fmt.Errorf("ckpt: no intact checkpoint generation at %s (%d rejected)", path, len(fails))
}

// ReadFile loads a checkpoint written by WriteFileAtomic.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// ckptEncoder is the serialization state shared by the monolithic GMCK
// writer and the sharded GMCS/KCMF writers (shard.go): little-endian
// scalar encoding teed through section and whole-file CRC32 hashes,
// section sealing, the per-rank section body, and the common footer.
type ckptEncoder struct {
	cw      *crcWriter
	version uint32
}

func newCkptEncoder(w io.Writer, version uint32) *ckptEncoder {
	return &ckptEncoder{
		cw:      &crcWriter{w: w, sect: crc32.NewIEEE(), file: crc32.NewIEEE()},
		version: version,
	}
}

func (e *ckptEncoder) u32(v uint32) { binary.Write(e.cw, binary.LittleEndian, v) }
func (e *ckptEncoder) u64(v uint64) { binary.Write(e.cw, binary.LittleEndian, v) }
func (e *ckptEncoder) i64(v int64)  { binary.Write(e.cw, binary.LittleEndian, v) }
func (e *ckptEncoder) f(v float64)  { binary.Write(e.cw, binary.LittleEndian, v) }
func (e *ckptEncoder) v3(v vec.V3)  { e.f(v.X); e.f(v.Y); e.f(v.Z) }

func (e *ckptEncoder) box(b box.Box) {
	e.v3(b.Lo)
	e.v3(b.Hi)
	for d := 0; d < 3; d++ {
		p := uint32(0)
		if b.Periodic[d] {
			p = 1
		}
		e.u32(p)
	}
}

func (e *ckptEncoder) str(s string) {
	e.u32(uint32(len(s)))
	e.cw.Write([]byte(s))
}

// endSection seals the bytes since the previous seal with their CRC32.
// The CRC bytes themselves feed the whole-file hash (the reader
// accumulates them identically), then the section hash resets.
func (e *ckptEncoder) endSection() {
	if e.version < 2 {
		return
	}
	sum := e.cw.sect.Sum32()
	e.u32(sum)
	e.cw.sect.Reset()
}

// rank serializes one rank's share, sealed as its own section.
func (e *ckptEncoder) rank(rk *Rank) {
	e.i64(int64(len(rk.Atoms)))
	for _, a := range rk.Atoms {
		e.i64(a.Tag)
		e.u32(uint32(a.Type))
		e.u32(uint32(a.Mol))
		e.v3(a.Pos)
		e.v3(a.Vel)
		e.f(a.Charge)
		e.u32(uint32(len(a.Special)))
		for _, s := range a.Special {
			e.i64(s.Tag)
			e.u32(uint32(s.Kind))
		}
		e.u32(uint32(len(a.Bonds)))
		for _, b := range a.Bonds {
			e.u32(uint32(b.Type))
			e.i64(b.Partner)
		}
		e.u32(uint32(len(a.Angles)))
		for _, an := range a.Angles {
			e.u32(uint32(an.Type))
			e.i64(an.A)
			e.i64(an.C)
		}
		e.u32(uint32(len(a.Dihedrals)))
		for _, d := range a.Dihedrals {
			e.u32(uint32(d.Type))
			e.i64(d.A)
			e.i64(d.C)
			e.i64(d.D)
		}
	}
	for _, f := range rk.Force {
		e.v3(f)
	}
	e.f(rk.LastPE)
	e.f(rk.LastVirial)
	for _, s := range rk.RNG.S {
		e.u64(s)
	}
	e.f(rk.RNG.Gauss)
	hg := uint32(0)
	if rk.RNG.HasGauss {
		hg = 1
	}
	e.u32(hg)
	e.u32(uint32(len(rk.FixState)))
	for _, fs := range rk.FixState {
		e.u32(uint32(len(fs)))
		for _, v := range fs {
			e.f(v)
		}
	}
	e.u32(uint32(len(rk.History)))
	for _, h := range rk.History {
		e.i64(h.Owner)
		e.i64(h.Partner)
		e.v3(h.Shear)
	}
	e.endSection()
}

// footer writes the v2 trailer: payload length + whole-file CRC over
// everything before it (section CRCs included). A truncated file loses
// the footer; a file truncated and then appended to misses the length
// check.
func (e *ckptEncoder) footer() {
	n := e.cw.n
	sum := e.cw.file.Sum32()
	e.u32(ckptFooterMagic)
	e.u64(uint64(n))
	e.u32(sum)
}

// ckptDecoder mirrors ckptEncoder on the read side with error latching:
// the first failure sticks and later reads become no-ops.
type ckptDecoder struct {
	cr      *crcReader
	version uint32
	err     error
	// noWrap marks err as already fully formed (semantic validation,
	// not an IO failure) so finish does not wrap it as truncation.
	noWrap bool
}

func newCkptDecoder(r io.Reader, version uint32) *ckptDecoder {
	return &ckptDecoder{
		cr:      &crcReader{r: bufio.NewReader(r), sect: crc32.NewIEEE(), file: crc32.NewIEEE()},
		version: version,
	}
}

func (d *ckptDecoder) u32() uint32 {
	var v uint32
	if d.err == nil {
		d.err = binary.Read(d.cr, binary.LittleEndian, &v)
	}
	return v
}

func (d *ckptDecoder) u64() uint64 {
	var v uint64
	if d.err == nil {
		d.err = binary.Read(d.cr, binary.LittleEndian, &v)
	}
	return v
}

func (d *ckptDecoder) i64() int64 {
	var v int64
	if d.err == nil {
		d.err = binary.Read(d.cr, binary.LittleEndian, &v)
	}
	return v
}

func (d *ckptDecoder) f() float64 {
	var v float64
	if d.err == nil {
		d.err = binary.Read(d.cr, binary.LittleEndian, &v)
	}
	return v
}

func (d *ckptDecoder) v3() vec.V3 { return vec.New(d.f(), d.f(), d.f()) }

func (d *ckptDecoder) box() box.Box {
	var b box.Box
	b.Lo = d.v3()
	b.Hi = d.v3()
	for i := 0; i < 3; i++ {
		b.Periodic[i] = d.u32() == 1
	}
	return b
}

// str reads a length-prefixed string, rejecting implausible lengths
// (max bounds the damage a corrupted length word can do).
func (d *ckptDecoder) str(max uint32) string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > max {
		d.fail(fmt.Errorf("ckpt: implausible string length %d", n))
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.cr, buf); err != nil {
		d.err = err
		return ""
	}
	return string(buf)
}

// fail latches a semantic-validation error that finish must not wrap.
func (d *ckptDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
		d.noWrap = true
	}
}

// endSection checks the stored section CRC against the bytes read since
// the previous seal (the computed sum must be captured before the
// stored one is consumed).
func (d *ckptDecoder) endSection(what string) {
	if d.version < 2 || d.err != nil {
		return
	}
	computed := d.cr.sect.Sum32()
	stored := d.u32()
	d.cr.sect.Reset()
	if d.err == nil && stored != computed {
		d.err = &IntegrityError{Section: what, Detail: fmt.Sprintf(
			"CRC mismatch (stored %#08x, computed %#08x)", stored, computed)}
	}
}

// rank deserializes one rank section written by ckptEncoder.rank.
// what labels the section in integrity errors ("rank 3").
func (d *ckptDecoder) rank(rk *Rank, what string) {
	n := d.i64()
	if d.err != nil {
		return
	}
	if n < 0 || n > 1<<31 {
		d.fail(fmt.Errorf("ckpt: implausible atom count %d on %s", n, what))
		return
	}
	rk.Atoms = make([]atom.Atom, 0, n)
	for i := int64(0); i < n && d.err == nil; i++ {
		var a atom.Atom
		a.Tag = d.i64()
		a.Type = int32(d.u32())
		a.Mol = int32(d.u32())
		a.Pos = d.v3()
		a.Vel = d.v3()
		a.Charge = d.f()
		ns := d.u32()
		for k := uint32(0); k < ns && d.err == nil; k++ {
			a.Special = append(a.Special, atom.SpecialRef{
				Tag: d.i64(), Kind: atom.SpecialKind(d.u32()),
			})
		}
		nb := d.u32()
		for k := uint32(0); k < nb && d.err == nil; k++ {
			a.Bonds = append(a.Bonds, atom.BondRef{
				Type: int32(d.u32()), Partner: d.i64(),
			})
		}
		na := d.u32()
		for k := uint32(0); k < na && d.err == nil; k++ {
			a.Angles = append(a.Angles, atom.AngleRef{
				Type: int32(d.u32()), A: d.i64(), C: d.i64(),
			})
		}
		nd := d.u32()
		for k := uint32(0); k < nd && d.err == nil; k++ {
			a.Dihedrals = append(a.Dihedrals, atom.DihedralRef{
				Type: int32(d.u32()), A: d.i64(), C: d.i64(), D: d.i64(),
			})
		}
		rk.Atoms = append(rk.Atoms, a)
	}
	rk.Force = make([]vec.V3, len(rk.Atoms))
	for i := range rk.Force {
		rk.Force[i] = d.v3()
	}
	rk.LastPE = d.f()
	rk.LastVirial = d.f()
	for i := range rk.RNG.S {
		rk.RNG.S[i] = d.u64()
	}
	rk.RNG.Gauss = d.f()
	rk.RNG.HasGauss = d.u32() == 1
	nfs := d.u32()
	for k := uint32(0); k < nfs && d.err == nil; k++ {
		m := d.u32()
		fs := make([]float64, m)
		for j := range fs {
			fs[j] = d.f()
		}
		rk.FixState = append(rk.FixState, fs)
	}
	nh := d.u32()
	for k := uint32(0); k < nh && d.err == nil; k++ {
		rk.History = append(rk.History, HistoryEntry{
			Owner: d.i64(), Partner: d.i64(), Shear: d.v3(),
		})
	}
	d.endSection(what)
}

// footer verifies the v2 trailer: the payload length and whole-file CRC
// must match what was just read. The computed values are captured
// before consuming the stored ones (the reads advance the hashes).
func (d *ckptDecoder) footer() {
	if d.version < 2 || d.err != nil {
		return
	}
	computedN := d.cr.n
	computedSum := d.cr.file.Sum32()
	fm := d.u32()
	storedN := d.u64()
	storedSum := d.u32()
	switch {
	case d.err != nil:
		// fall through to the truncation wrap in finish
	case fm != ckptFooterMagic:
		d.err = &IntegrityError{Section: "footer", Detail: fmt.Sprintf(
			"bad footer magic %#08x (file truncated or overwritten mid-write)", fm)}
	case int64(storedN) != computedN:
		d.err = &IntegrityError{Section: "footer", Detail: fmt.Sprintf(
			"payload length %d, footer declares %d", computedN, storedN)}
	case storedSum != computedSum:
		d.err = &IntegrityError{Section: "footer", Detail: fmt.Sprintf(
			"file CRC mismatch (stored %#08x, computed %#08x)", storedSum, computedSum)}
	}
}

// finish reports the latched error, wrapping bare IO failures as
// truncation (integrity and semantic-validation errors pass through).
func (d *ckptDecoder) finish() error {
	if d.err == nil {
		return nil
	}
	var ie *IntegrityError
	if d.noWrap || errors.As(d.err, &ie) {
		return d.err
	}
	return fmt.Errorf("ckpt: truncated checkpoint: %w", d.err)
}

// Write serializes the checkpoint in the current (v2) format
// (little-endian, versioned; same closure idiom as the dump package's
// restart format).
func Write(out io.Writer, ck *Checkpoint) error {
	return writeVersion(out, ck, ckptVersion)
}

// writeVersion serializes at an explicit format version (v1 kept for
// the backward-compatibility tests).
func writeVersion(out io.Writer, ck *Checkpoint, version uint32) error {
	bw := bufio.NewWriter(out)
	e := newCkptEncoder(bw, version)
	e.u32(ckptMagic)
	e.u32(version)
	e.i64(ck.Step)
	e.u32(uint32(ck.Ranks))
	for d := 0; d < 3; d++ {
		e.u32(uint32(ck.Grid[d]))
	}
	e.box(ck.Box)
	e.box(ck.SetupBox)
	e.f(ck.Q2Setup)
	e.endSection() // header CRC
	for r := range ck.PerRank {
		e.rank(&ck.PerRank[r])
	}
	if version >= 2 {
		e.footer()
	}
	return bw.Flush()
}

// Read deserializes a checkpoint written by Write. v2 files are
// verified section by section (CRC32) and against the footer; v1 files
// are read without verification (they carry none).
func Read(in io.Reader) (*Checkpoint, error) {
	d := newCkptDecoder(in, ckptV1)
	if m := d.u32(); d.err != nil || m != ckptMagic {
		if d.err == nil {
			d.err = fmt.Errorf("ckpt: bad magic %#x", m)
		}
		return nil, d.err
	}
	if v := d.u32(); d.err != nil || (v != ckptV1 && v != ckptVersion) {
		if d.err == nil {
			d.err = fmt.Errorf("ckpt: unsupported version %d", v)
		}
		return nil, d.err
	} else {
		d.version = v
	}
	ck := &Checkpoint{}
	ck.Step = d.i64()
	ck.Ranks = int(d.u32())
	for i := 0; i < 3; i++ {
		ck.Grid[i] = int(d.u32())
	}
	ck.Box = d.box()
	ck.SetupBox = d.box()
	ck.Q2Setup = d.f()
	d.endSection("header")
	if d.err != nil {
		return nil, d.err
	}
	if ck.Ranks < 1 || ck.Ranks > 1<<16 {
		return nil, fmt.Errorf("ckpt: implausible rank count %d", ck.Ranks)
	}
	ck.PerRank = make([]Rank, ck.Ranks)
	for r := 0; r < ck.Ranks && d.err == nil; r++ {
		d.rank(&ck.PerRank[r], fmt.Sprintf("rank %d", r))
	}
	d.footer()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return ck, nil
}
