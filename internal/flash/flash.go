// Package flash models a NAND flash array: channels, dies, planes, blocks
// and pages, with realistic operation latencies and per-channel bus
// bandwidth, backed by a sparse in-memory page store holding real bytes.
//
// The model enforces NAND programming rules (pages must be erased before
// being programmed; erase works on whole blocks), which is what makes the
// FTL layered above it meaningfully testable.
package flash

import (
	"errors"
	"fmt"
	"time"

	"compstor/internal/energy"
	"compstor/internal/obs"
	"compstor/internal/sim"
)

// Geometry describes the physical organisation of the array.
type Geometry struct {
	Channels      int
	DiesPerChan   int
	PlanesPerDie  int
	BlocksPerPlan int
	PagesPerBlock int
	PageSize      int
}

// DefaultGeometry returns a laptop-scale geometry with the paper's
// channel-level parallelism (16 channels) but a reduced per-die capacity so
// whole-device tests stay fast. Capacity: 16ch × 1die × 1plane × 256blk ×
// 64pg × 4 KiB = 4 GiB.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:      16,
		DiesPerChan:   1,
		PlanesPerDie:  1,
		BlocksPerPlan: 256,
		PagesPerBlock: 64,
		PageSize:      4096,
	}
}

// PaperGeometry returns the 24 TB prototype's geometry for bandwidth
// analysis (not for byte-backed simulation): 16 channels, 8 dies/channel.
func PaperGeometry() Geometry {
	return Geometry{
		Channels:      16,
		DiesPerChan:   8,
		PlanesPerDie:  2,
		BlocksPerPlan: 2048,
		PagesPerBlock: 2816,
		PageSize:      16384,
	}
}

// Validate reports whether every dimension is positive.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.DiesPerChan <= 0 || g.PlanesPerDie <= 0 ||
		g.BlocksPerPlan <= 0 || g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return fmt.Errorf("flash: invalid geometry %+v", g)
	}
	return nil
}

// Blocks returns the total number of erase blocks in the array.
func (g Geometry) Blocks() int64 {
	return int64(g.Channels) * int64(g.DiesPerChan) * int64(g.PlanesPerDie) * int64(g.BlocksPerPlan)
}

// Pages returns the total number of pages in the array.
func (g Geometry) Pages() int64 { return g.Blocks() * int64(g.PagesPerBlock) }

// Bytes returns the raw capacity in bytes.
func (g Geometry) Bytes() int64 { return g.Pages() * int64(g.PageSize) }

// MediaBandwidth returns the aggregate channel-bus bandwidth in bytes/s —
// the "enormous aggregated bandwidth at the media interface" of the paper's
// Fig. 1 argument.
func (g Geometry) MediaBandwidth(t Timing) float64 {
	return float64(g.Channels) * t.ChannelBytesPerSec
}

// Timing holds NAND operation latencies and channel bandwidth.
type Timing struct {
	ReadPage           time.Duration
	ProgramPage        time.Duration
	EraseBlock         time.Duration
	ChannelBytesPerSec float64
}

// DefaultTiming returns MLC-class NAND timing with the paper's 533 MB/s
// channel buses.
func DefaultTiming() Timing {
	return Timing{
		ReadPage:           60 * time.Microsecond,
		ProgramPage:        600 * time.Microsecond,
		EraseBlock:         3 * time.Millisecond,
		ChannelBytesPerSec: 533e6,
	}
}

// Addr identifies a physical page.
type Addr struct {
	Channel int
	Die     int
	Plane   int
	Block   int
	Page    int
}

func (a Addr) String() string {
	return fmt.Sprintf("ch%d/die%d/pl%d/blk%d/pg%d", a.Channel, a.Die, a.Plane, a.Block, a.Page)
}

// Errors returned by device operations.
var (
	ErrOutOfRange = errors.New("flash: address out of range")
	ErrNotErased  = errors.New("flash: programming a non-erased page")
	ErrUnwritten  = errors.New("flash: reading an unwritten page")
	ErrPageSize   = errors.New("flash: data does not match page size")
	// ErrPowerLoss is returned by operations on a powered-off device, and by
	// operations the power cut interrupted mid-flight. A program interrupted
	// mid-flight leaves a torn page behind: partially-written cells with the
	// OOB area recorded, which only the payload CRC can expose.
	ErrPowerLoss = errors.New("flash: device power lost")
)

// OOB is the out-of-band (spare) area programmed atomically with its page.
// The FTL journals recovery metadata here: the logical page the data belongs
// to, a device-wide monotonically increasing sequence number, and a CRC32C
// of the page payload.
type OOB struct {
	LPN int64
	Seq uint64
	CRC uint32
}

// OOBBytes is the modelled size of the spare area: what an OOB-only scan
// read moves across the channel bus instead of a whole page.
const OOBBytes = 20

// NoLPN marks OOB written through the plain ProgramPage path (no journal
// metadata).
const NoLPN int64 = -1

// Stats counts media operations. Like all model state it is mutated only
// from engine context; reading it mid-run is safe when scheduled as an
// engine event (see the single-goroutine invariant in package obs).
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
	OOBReads int64 // spare-area-only reads (recovery scans)
}

// Device is a NAND array attached to a simulation engine. All operations
// take a *sim.Proc and advance virtual time; data is stored for real.
type Device struct {
	eng    *sim.Engine
	geo    Geometry
	timing Timing

	chanBus []*sim.Link     // per-channel data bus
	dies    []*sim.Resource // per-die occupancy (channels*diesPerChan)

	pages      map[int64][]byte // linear page -> data; owned by the device
	freeBufs   [][]byte         // erased pages' buffers (≤ one block), reused by programs
	oob        map[int64]OOB    // linear page -> spare area
	written    map[int64]bool   // linear page -> programmed since last erase
	eraseCount map[int64]int64  // linear block -> erase cycles

	powered bool
	lastOff sim.Time // most recent power-off instant; -1 if never cut

	stats Stats
	meter *energy.Component
	// Incremental power while a die is busy, and per-byte bus energy, are
	// fixed at SetEnergy time.
	dieActiveW float64

	faultHook func(op FaultOp, a Addr) error

	obs       *obs.Obs
	histRead  *obs.Histogram
	histProg  *obs.Histogram
	histErase *obs.Histogram
	histOOB   *obs.Histogram
	chTracks  []string // per-channel span track names
}

// FaultOp identifies the media operation a fault hook intercepts.
type FaultOp int

// Fault-injectable operations.
const (
	FaultRead FaultOp = iota
	FaultProgram
	FaultErase
)

func (op FaultOp) String() string {
	switch op {
	case FaultRead:
		return "read"
	case FaultProgram:
		return "program"
	case FaultErase:
		return "erase"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// SetFaultHook installs a fault injector: it runs before each media
// operation (after timing is charged, as a real failed operation still
// costs its latency) and may force the operation to fail. Used by tests to
// exercise error propagation through the FTL, protocol, and application
// layers. Pass nil to clear.
func (d *Device) SetFaultHook(fn func(op FaultOp, a Addr) error) { d.faultHook = fn }

func (d *Device) fault(op FaultOp, a Addr) error {
	if d.faultHook == nil {
		return nil
	}
	return d.faultHook(op, a)
}

// NewDevice builds a NAND array. It panics on invalid geometry, since a
// device cannot exist without one.
func NewDevice(eng *sim.Engine, name string, geo Geometry, timing Timing) *Device {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if timing.ChannelBytesPerSec <= 0 {
		panic("flash: non-positive channel bandwidth")
	}
	d := &Device{
		eng:        eng,
		geo:        geo,
		timing:     timing,
		pages:      make(map[int64][]byte),
		oob:        make(map[int64]OOB),
		written:    make(map[int64]bool),
		eraseCount: make(map[int64]int64),
		powered:    true,
		lastOff:    -1,
	}
	for c := 0; c < geo.Channels; c++ {
		d.chanBus = append(d.chanBus, sim.NewLink(eng, fmt.Sprintf("%s/ch%d", name, c), timing.ChannelBytesPerSec, 0))
	}
	for i := 0; i < geo.Channels*geo.DiesPerChan; i++ {
		d.dies = append(d.dies, sim.NewResource(eng, 1))
	}
	return d
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.timing }

// Stats returns the operation counters.
func (d *Device) Stats() Stats { return d.stats }

// SetObs attaches an observability scope: per-operation latency histograms
// (flash.read/program/erase/oob_read), per-channel bus utilisation
// timelines, snapshot-time counters pulled from Stats, and — when tracing
// is enabled — one span per media operation on its channel's track. A nil
// scope detaches everything except already-installed link hooks.
func (d *Device) SetObs(o *obs.Obs) {
	d.obs = o
	d.histRead = o.Histogram("flash.read")
	d.histProg = o.Histogram("flash.program")
	d.histErase = o.Histogram("flash.erase")
	d.histOOB = o.Histogram("flash.oob_read")
	d.chTracks = d.chTracks[:0]
	for c, bus := range d.chanBus {
		d.chTracks = append(d.chTracks, fmt.Sprintf("flash.ch%d", c))
		if o != nil {
			o.WatchLink(fmt.Sprintf("flash.ch%d.busy", c), time.Millisecond, bus)
		}
	}
	o.CounterFunc("flash.reads", func() int64 { return d.stats.Reads })
	o.CounterFunc("flash.programs", func() int64 { return d.stats.Programs })
	o.CounterFunc("flash.erases", func() int64 { return d.stats.Erases })
	o.CounterFunc("flash.oob_reads", func() int64 { return d.stats.OOBReads })
}

// SetEnergy attaches an energy component: die-busy time is charged at
// activeWatts, and channel-bus occupancy at busWatts per channel.
func (d *Device) SetEnergy(c *energy.Component, activeWatts, busWatts float64) {
	d.meter = c
	d.dieActiveW = activeWatts
	for _, l := range d.chanBus {
		energy.MeterLink(c, l, busWatts)
	}
}

func (d *Device) check(a Addr) error {
	if a.Channel < 0 || a.Channel >= d.geo.Channels ||
		a.Die < 0 || a.Die >= d.geo.DiesPerChan ||
		a.Plane < 0 || a.Plane >= d.geo.PlanesPerDie ||
		a.Block < 0 || a.Block >= d.geo.BlocksPerPlan ||
		a.Page < 0 || a.Page >= d.geo.PagesPerBlock {
		return fmt.Errorf("%w: %v", ErrOutOfRange, a)
	}
	return nil
}

// blockIndex linearises the block coordinate of an address.
func (d *Device) blockIndex(a Addr) int64 { return d.geo.BlockIndex(a) }

// pageIndex linearises a page address.
func (d *Device) pageIndex(a Addr) int64 { return d.geo.PageIndex(a) }

func (d *Device) die(a Addr) *sim.Resource {
	return d.dies[a.Channel*d.geo.DiesPerChan+a.Die]
}

func (d *Device) chargeDie(dur time.Duration) {
	if d.meter != nil {
		d.meter.AddActive(dur, d.dieActiveW)
	}
}

// PowerOff cuts the device's power immediately. Operations in flight at the
// cut fail with ErrPowerLoss when their timing completes; a program caught
// mid-flight leaves a torn page behind. Idempotent.
func (d *Device) PowerOff() {
	if d.powered {
		d.powered = false
		d.lastOff = d.eng.Now()
	}
}

// PowerOn restores power. The media keeps whatever state the cut left —
// including torn pages — which is exactly what mount-time recovery must
// cope with.
func (d *Device) PowerOn() { d.powered = true }

// PoweredOff reports whether the device is currently without power.
func (d *Device) PoweredOff() bool { return !d.powered }

// cutDuring reports whether an operation started at `start` was interrupted
// by a power cut (the device is off now, or it was cut and restored while
// the operation's timing elapsed).
func (d *Device) cutDuring(start sim.Time) bool {
	return !d.powered || (d.lastOff >= 0 && d.lastOff >= start)
}

// ReadPage reads one page's payload into a fresh buffer; see
// ReadPageOOBInto.
func (d *Device) ReadPage(p *sim.Proc, a Addr) ([]byte, error) {
	data, _, err := d.ReadPageOOB(p, a)
	return data, err
}

// ReadPageOOB reads one page and its spare area into a fresh buffer; see
// ReadPageOOBInto.
func (d *Device) ReadPageOOB(p *sim.Proc, a Addr) ([]byte, OOB, error) {
	dst := make([]byte, d.geo.PageSize)
	oob, err := d.ReadPageOOBInto(p, a, dst)
	if err != nil {
		return nil, OOB{}, err
	}
	return dst, oob, nil
}

// ReadPageOOBInto reads one page into dst (exactly one page) and returns
// its spare area: the die is busy for tR, then the page crosses the channel
// bus. Stored pages never leave the device; dst receives a copy, and is
// left unspecified on error. Reading an unwritten page returns ErrUnwritten
// (raw NAND would return all-0xFF; surfacing it as an error catches FTL
// bugs).
func (d *Device) ReadPageOOBInto(p *sim.Proc, a Addr, dst []byte) (OOB, error) {
	if err := d.check(a); err != nil {
		return OOB{}, err
	}
	if len(dst) != d.geo.PageSize {
		return OOB{}, fmt.Errorf("%w: read into %d bytes, page is %d", ErrPageSize, len(dst), d.geo.PageSize)
	}
	if !d.powered {
		return OOB{}, fmt.Errorf("%w: read %v", ErrPowerLoss, a)
	}
	start := p.Now()
	if d.obs != nil {
		sp := d.obs.Begin(p, d.chTracks[a.Channel], "read")
		defer func() {
			d.histRead.Observe(p.Now().Sub(start))
			sp.End()
		}()
	}
	idx := d.pageIndex(a)
	die := d.die(a)
	die.Acquire(p)
	// The sense wait, die hand-back, and bus transfer collapse into one
	// engine-side continuation: the bookkeeping runs at exactly the instants
	// it did as separate waits, but without waking the proc in between.
	p.WaitFn(d.timing.ReadPage, func() sim.Time {
		die.AddBusy(d.timing.ReadPage)
		die.Release()
		d.chargeDie(d.timing.ReadPage)
		return d.chanBus[a.Channel].TransferTime(int64(d.geo.PageSize))
	})
	if d.cutDuring(start) {
		return OOB{}, fmt.Errorf("%w: read %v", ErrPowerLoss, a)
	}
	d.stats.Reads++
	if err := d.fault(FaultRead, a); err != nil {
		return OOB{}, err
	}
	data, ok := d.pages[idx]
	if !ok {
		return OOB{}, fmt.Errorf("%w: %v", ErrUnwritten, a)
	}
	copy(dst, data)
	return d.oob[idx], nil
}

// ReadOOB reads only the spare area of a page — the fast scan primitive
// recovery uses to walk the whole media without paying full page transfers.
// The die is still busy for tR (NAND senses the whole page), but only
// OOBBytes cross the bus. ok is false when the page holds no OOB record
// (unwritten, or torn so badly the spare area is unreadable).
func (d *Device) ReadOOB(p *sim.Proc, a Addr) (oob OOB, ok bool, err error) {
	if err := d.check(a); err != nil {
		return OOB{}, false, err
	}
	if !d.powered {
		return OOB{}, false, fmt.Errorf("%w: oob read %v", ErrPowerLoss, a)
	}
	start := p.Now()
	if d.obs != nil {
		sp := d.obs.Begin(p, d.chTracks[a.Channel], "oob_read")
		defer func() {
			d.histOOB.Observe(p.Now().Sub(start))
			sp.End()
		}()
	}
	die := d.die(a)
	die.Acquire(p)
	p.WaitFn(d.timing.ReadPage, func() sim.Time {
		die.AddBusy(d.timing.ReadPage)
		die.Release()
		d.chargeDie(d.timing.ReadPage)
		return d.chanBus[a.Channel].TransferTime(OOBBytes)
	})
	if d.cutDuring(start) {
		return OOB{}, false, fmt.Errorf("%w: oob read %v", ErrPowerLoss, a)
	}
	d.stats.OOBReads++
	if err := d.fault(FaultRead, a); err != nil {
		return OOB{}, false, err
	}
	oob, ok = d.oob[d.pageIndex(a)]
	return oob, ok, nil
}

// ProgramPage writes one page with an empty spare area; see ProgramPageOOB.
func (d *Device) ProgramPage(p *sim.Proc, a Addr, data []byte) error {
	return d.ProgramPageOOB(p, a, data, OOB{LPN: NoLPN})
}

// ProgramPageOOB writes one page and its spare area atomically: data
// crosses the channel bus, then the die is busy for tProg. data must be
// exactly one page. Programming a page that has not been erased since its
// last program returns ErrNotErased. A power cut during the program leaves
// a torn page: cells were mid-write, so the payload is corrupted while the
// spare area reads back — the condition oob.CRC exists to expose.
func (d *Device) ProgramPageOOB(p *sim.Proc, a Addr, data []byte, oob OOB) error {
	if err := d.check(a); err != nil {
		return err
	}
	if len(data) != d.geo.PageSize {
		return fmt.Errorf("%w: got %d bytes, page is %d", ErrPageSize, len(data), d.geo.PageSize)
	}
	if !d.powered {
		return fmt.Errorf("%w: program %v", ErrPowerLoss, a)
	}
	idx := d.pageIndex(a)
	if d.written[idx] {
		return fmt.Errorf("%w: %v", ErrNotErased, a)
	}
	start := p.Now()
	if d.obs != nil {
		sp := d.obs.Begin(p, d.chTracks[a.Channel], "program")
		defer func() {
			d.histProg.Observe(p.Now().Sub(start))
			sp.End()
		}()
	}
	d.chanBus[a.Channel].Transfer(p, int64(d.geo.PageSize))
	die := d.die(a)
	die.Acquire(p)
	p.WaitFn(d.timing.ProgramPage, func() sim.Time {
		die.AddBusy(d.timing.ProgramPage)
		die.Release()
		d.chargeDie(d.timing.ProgramPage)
		return d.eng.Now()
	})
	if d.cutDuring(start) {
		torn := d.pageBuf()
		copy(torn, data)
		for i := len(torn) / 2; i < len(torn); i++ {
			torn[i] ^= 0xFF // cells that never finished programming
		}
		d.pages[idx] = torn
		d.oob[idx] = oob
		d.written[idx] = true
		d.stats.Programs++
		return fmt.Errorf("%w: torn program %v", ErrPowerLoss, a)
	}
	if err := d.fault(FaultProgram, a); err != nil {
		// A failed program leaves the page in an indeterminate, non-erased
		// state; mark it written so the FTL must erase before retrying here.
		d.written[idx] = true
		d.stats.Programs++
		return err
	}
	stored := d.pageBuf()
	copy(stored, data)
	d.pages[idx] = stored
	d.oob[idx] = oob
	d.written[idx] = true
	d.stats.Programs++
	return nil
}

// EraseBlock erases the whole block containing a (a.Page is ignored),
// clearing all its pages and bumping the block's wear counter. A power cut
// during the erase leaves the block's old contents intact (the model
// resolves a half-erased block to "not erased", the conservative outcome
// for recovery).
func (d *Device) EraseBlock(p *sim.Proc, a Addr) error {
	a.Page = 0
	if err := d.check(a); err != nil {
		return err
	}
	if !d.powered {
		return fmt.Errorf("%w: erase %v", ErrPowerLoss, a)
	}
	start := p.Now()
	if d.obs != nil {
		sp := d.obs.Begin(p, d.chTracks[a.Channel], "erase")
		defer func() {
			d.histErase.Observe(p.Now().Sub(start))
			sp.End()
		}()
	}
	die := d.die(a)
	die.Acquire(p)
	p.WaitFn(d.timing.EraseBlock, func() sim.Time {
		die.AddBusy(d.timing.EraseBlock)
		die.Release()
		d.chargeDie(d.timing.EraseBlock)
		return d.eng.Now()
	})
	if d.cutDuring(start) {
		return fmt.Errorf("%w: erase %v", ErrPowerLoss, a)
	}
	if err := d.fault(FaultErase, a); err != nil {
		return err
	}
	blk := d.blockIndex(a)
	base := blk * int64(d.geo.PagesPerBlock)
	for i := 0; i < d.geo.PagesPerBlock; i++ {
		// Keep at most one block's worth of buffers: the programs after an
		// erase reuse them, while a burst of erases (a bulk TRIM turned into
		// dead blocks) must not pin memory the page store no longer uses.
		if buf, ok := d.pages[base+int64(i)]; ok && len(d.freeBufs) < d.geo.PagesPerBlock {
			d.freeBufs = append(d.freeBufs, buf)
		}
		delete(d.pages, base+int64(i))
		delete(d.oob, base+int64(i))
		delete(d.written, base+int64(i))
	}
	d.eraseCount[blk]++
	d.stats.Erases++
	return nil
}

// pageBuf returns a page-sized buffer for a program to store, recycled from
// an erased page when one is free. Its old contents are always overwritten
// in full.
func (d *Device) pageBuf() []byte {
	if n := len(d.freeBufs); n > 0 {
		buf := d.freeBufs[n-1]
		d.freeBufs[n-1] = nil
		d.freeBufs = d.freeBufs[:n-1]
		return buf
	}
	return make([]byte, d.geo.PageSize)
}

// EraseCount returns the wear (erase cycles) of the block containing a.
func (d *Device) EraseCount(a Addr) int64 { return d.eraseCount[d.blockIndex(a)] }

// MaxEraseCount returns the highest wear across all ever-erased blocks.
func (d *Device) MaxEraseCount() int64 {
	var max int64
	for _, c := range d.eraseCount {
		if c > max {
			max = c
		}
	}
	return max
}

// IsWritten reports whether the page at a holds programmed data.
func (d *Device) IsWritten(a Addr) bool {
	if d.check(a) != nil {
		return false
	}
	return d.written[d.pageIndex(a)]
}

// CorruptPage silently flips bits in the stored payload of a (the spare
// area is untouched), modelling retention/disturb corruption that only a
// payload CRC can catch. Reports whether there was data to corrupt. No
// timing is charged: corruption is a state change, not an operation.
func (d *Device) CorruptPage(a Addr) bool {
	if d.check(a) != nil {
		return false
	}
	data, ok := d.pages[d.pageIndex(a)]
	if !ok || len(data) == 0 {
		return false
	}
	n := len(data)
	if n > 64 {
		n = 64
	}
	// Overwrite rather than xor: damage must be sticky, so corrupting the
	// same page again (e.g. on a read retry) cannot undo itself.
	for i := 0; i < n; i++ {
		data[i] = 0x5A ^ byte(i)
	}
	return true
}

// InjectRaw force-stores payload bytes and an OOB record at a, bypassing
// programming rules and timing. Test/fuzz seam for planting malformed
// on-media state that recovery must survive. Short payloads are
// zero-padded; long ones truncated.
func (d *Device) InjectRaw(a Addr, data []byte, oob OOB) error {
	if err := d.check(a); err != nil {
		return err
	}
	idx := d.pageIndex(a)
	page := make([]byte, d.geo.PageSize)
	copy(page, data)
	d.pages[idx] = page
	d.oob[idx] = oob
	d.written[idx] = true
	return nil
}

// OOBAt returns the spare area stored at a without charging timing (test
// inspection seam).
func (d *Device) OOBAt(a Addr) (OOB, bool) {
	if d.check(a) != nil {
		return OOB{}, false
	}
	oob, ok := d.oob[d.pageIndex(a)]
	return oob, ok
}

// ChannelBus exposes channel c's bus link for utilisation reporting.
func (d *Device) ChannelBus(c int) *sim.Link { return d.chanBus[c] }
