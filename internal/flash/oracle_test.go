package flash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"compstor/internal/sim"
)

// pageModel is the oracle for the page store: independent copies of every
// stored payload and spare area, updated by the documented semantics of
// each operation.
type pageModel struct {
	pages   map[int64][]byte
	oob     map[int64]OOB
	powered bool
}

func (m *pageModel) store(idx int64, data []byte, oob OOB) {
	m.pages[idx] = append([]byte(nil), data...)
	m.oob[idx] = oob
}

// TestPagePathAgainstModel drives a small device through random program,
// erase, read, CorruptPage, InjectRaw and power-cut sequences (cuts both
// between and in the middle of operations) and checks every read against
// the oracle. Reads all go through ReadPageOOBInto into one reused buffer
// that is scribbled before each read, so a read that leaves stale bytes, a
// program that keeps the caller's slice, or an erase whose recycled buffer
// is still reachable from a live page shows up as a mismatch.
func TestPagePathAgainstModel(t *testing.T) {
	geo := Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 3, PagesPerBlock: 4, PageSize: 64}
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			eng := sim.NewEngine()
			dev := NewDevice(eng, "nand", geo, DefaultTiming())
			m := &pageModel{pages: map[int64][]byte{}, oob: map[int64]OOB{}, powered: true}
			var err error
			eng.Go("oracle", func(p *sim.Proc) { err = runPageOracle(p, dev, m, rand.New(rand.NewSource(seed))) })
			eng.Run()
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func runPageOracle(p *sim.Proc, dev *Device, m *pageModel, rng *rand.Rand) error {
	geo := dev.Geometry()
	dst := make([]byte, geo.PageSize)
	src := make([]byte, geo.PageSize)
	randAddr := func() Addr { return geo.AddrOfPage(rng.Int63n(geo.Pages())) }
	// cutMidOp schedules a power cut 1 ns into the operation about to start;
	// every operation that reaches its timing lasts far longer.
	cutMidOp := func() bool {
		if !m.powered || rng.Intn(12) != 0 {
			return false
		}
		eng := p.Engine()
		eng.At(eng.Now()+1, dev.PowerOff)
		m.powered = false
		return true
	}
	var seq uint64
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(20); {
		case op < 6: // program
			a := randAddr()
			idx := geo.PageIndex(a)
			_, written := m.pages[idx]
			rng.Read(src)
			seq++
			oob := OOB{LPN: rng.Int63n(100), Seq: seq, CRC: rng.Uint32()}
			cut := !written && cutMidOp()
			err := dev.ProgramPageOOB(p, a, src, oob)
			switch {
			case cut:
				torn := append([]byte(nil), src...)
				for i := len(torn) / 2; i < len(torn); i++ {
					torn[i] ^= 0xFF
				}
				m.store(idx, torn, oob)
				if !errors.Is(err, ErrPowerLoss) {
					return fmt.Errorf("step %d: program cut mid-flight at %v: err %v", step, a, err)
				}
			case !m.powered:
				if !errors.Is(err, ErrPowerLoss) {
					return fmt.Errorf("step %d: program while off at %v: err %v", step, a, err)
				}
			case written:
				if !errors.Is(err, ErrNotErased) {
					return fmt.Errorf("step %d: reprogram of %v: err %v", step, a, err)
				}
			default:
				if err != nil {
					return fmt.Errorf("step %d: program %v: %v", step, a, err)
				}
				m.store(idx, src, oob)
			}
			rng.Read(src) // the device must hold its own copy
		case op < 8: // erase
			a := randAddr()
			cut := cutMidOp()
			err := dev.EraseBlock(p, a)
			switch {
			case cut || !m.powered:
				if !errors.Is(err, ErrPowerLoss) {
					return fmt.Errorf("step %d: erase without power at %v: err %v", step, a, err)
				}
			case err != nil:
				return fmt.Errorf("step %d: erase %v: %v", step, a, err)
			default:
				base := geo.BlockIndex(a) * int64(geo.PagesPerBlock)
				for i := int64(0); i < int64(geo.PagesPerBlock); i++ {
					delete(m.pages, base+i)
					delete(m.oob, base+i)
				}
			}
		case op < 15: // read
			a := randAddr()
			if err := checkRead(p, dev, m, a, dst, cutMidOp(), rng); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		case op < 17: // retention corruption
			a := randAddr()
			idx := geo.PageIndex(a)
			data, ok := m.pages[idx]
			if got := dev.CorruptPage(a); got != ok {
				return fmt.Errorf("step %d: CorruptPage(%v) = %v, model holds data: %v", step, a, got, ok)
			}
			for i := 0; i < len(data) && i < 64; i++ {
				data[i] = 0x5A ^ byte(i)
			}
		case op < 18: // planted raw state
			a := randAddr()
			short := src[:rng.Intn(geo.PageSize+1)]
			rng.Read(short)
			oob := OOB{LPN: NoLPN, Seq: rng.Uint64()}
			if err := dev.InjectRaw(a, short, oob); err != nil {
				return fmt.Errorf("step %d: inject %v: %v", step, a, err)
			}
			page := make([]byte, geo.PageSize)
			copy(page, short)
			m.store(geo.PageIndex(a), page, oob)
			rng.Read(src)
		case op < 19: // power cut between operations
			dev.PowerOff()
			m.powered = false
		default:
			dev.PowerOn()
			m.powered = true
		}
		p.Wait(time.Microsecond) // let a mid-op cut land before the next op
	}
	// Final sweep: every address agrees with the model.
	dev.PowerOn()
	m.powered = true
	for idx := int64(0); idx < geo.Pages(); idx++ {
		a := geo.AddrOfPage(idx)
		if err := checkRead(p, dev, m, a, dst, false, rng); err != nil {
			return fmt.Errorf("final sweep: %w", err)
		}
		_, stored := m.pages[idx]
		if dev.IsWritten(a) != stored {
			return fmt.Errorf("final sweep: IsWritten(%v) = %v, model %v", a, dev.IsWritten(a), stored)
		}
		if oob, ok := dev.OOBAt(a); ok != stored || oob != m.oob[idx] {
			return fmt.Errorf("final sweep: OOBAt(%v) = %+v %v, model %+v %v", a, oob, ok, m.oob[idx], stored)
		}
	}
	return nil
}

// checkRead scribbles dst, reads a into it and compares with the model.
func checkRead(p *sim.Proc, dev *Device, m *pageModel, a Addr, dst []byte, cut bool, rng *rand.Rand) error {
	rng.Read(dst)
	idx := dev.Geometry().PageIndex(a)
	want, stored := m.pages[idx]
	oob, err := dev.ReadPageOOBInto(p, a, dst)
	switch {
	case cut || !m.powered:
		if !errors.Is(err, ErrPowerLoss) {
			return fmt.Errorf("read without power at %v: err %v", a, err)
		}
	case !stored:
		if !errors.Is(err, ErrUnwritten) {
			return fmt.Errorf("read of unwritten %v: err %v", a, err)
		}
	case err != nil:
		return fmt.Errorf("read %v: %v", a, err)
	case !bytes.Equal(dst, want):
		return fmt.Errorf("read %v: payload differs from model", a)
	case oob != m.oob[idx]:
		return fmt.Errorf("read %v: oob %+v, model %+v", a, oob, m.oob[idx])
	}
	return nil
}

func TestReadPageOOBIntoRejectsWrongSize(t *testing.T) {
	eng := sim.NewEngine()
	dev := testDevice(eng)
	var err error
	eng.Go("io", func(p *sim.Proc) {
		_, err = dev.ReadPageOOBInto(p, Addr{}, make([]byte, dev.Geometry().PageSize-1))
	})
	eng.Run()
	if !errors.Is(err, ErrPageSize) {
		t.Fatalf("short dst: err %v, want ErrPageSize", err)
	}
	if dev.Stats().Reads != 0 {
		t.Fatal("a rejected read reached the media")
	}
}
