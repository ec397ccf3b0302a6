package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"compstor/internal/sim"
)

func dirty(f *FTL) []byte { return fill(f, 0xAA) }

// An unmapped read zeroes the whole destination, whatever it held, without
// touching the media: never-written and trimmed pages alike.
func TestReadPageIntoUnmappedZeroesDst(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	zero := make([]byte, f.PageSize())
	run(t, eng, func(p *sim.Proc) error {
		dst := dirty(f)
		if err := f.ReadPageInto(p, 5, dst); err != nil {
			return err
		}
		if !bytes.Equal(dst, zero) {
			return fmt.Errorf("never-written lpn left %x... in dst", dst[:8])
		}
		if err := f.WritePage(p, 6, fill(f, 0x33)); err != nil {
			return err
		}
		if err := f.Trim(p, 6, 1); err != nil {
			return err
		}
		reads := f.Device().Stats().Reads
		dst = dirty(f)
		if err := f.ReadPageInto(p, 6, dst); err != nil {
			return err
		}
		if !bytes.Equal(dst, zero) {
			return fmt.Errorf("trimmed lpn left %x... in dst", dst[:8])
		}
		if got := f.Device().Stats().Reads; got != reads {
			return fmt.Errorf("unmapped read touched the media (%d flash reads)", got-reads)
		}
		return nil
	})
}

// Corruption belongs to the page, not to the buffer that stored it: a
// corrupted page keeps failing CRC after GC relocates it and erases (and so
// recycles) its old buffer, while the pages later programmed into recycled
// buffers read back exactly.
func TestCorruptionSurvivesBufferRecycling(t *testing.T) {
	eng := sim.NewEngine()
	f := newTestFTL(eng, DefaultConfig())
	// A working set of most of the capacity keeps live pages in every GC
	// victim, so relocation is routine rather than rare.
	const victim = int64(0)
	hot := f.LogicalPages() * 3 / 4
	rng := rand.New(rand.NewSource(1))
	other := func() int64 { return 1 + rng.Int63n(hot-1) }
	latest := map[int64]byte{}
	write := func(p *sim.Proc, lpn int64, b byte) error {
		latest[lpn] = b
		return f.WritePage(p, lpn, fill(f, b))
	}
	run(t, eng, func(p *sim.Proc) error {
		for lpn := int64(0); lpn < hot; lpn++ {
			if err := write(p, lpn, byte(lpn)); err != nil {
				return err
			}
		}
		// Churn until GC has recycled buffers, so the victim's next program
		// lands in one.
		for i := 0; f.Device().Stats().Erases == 0; i++ {
			if err := write(p, other(), byte(i)); err != nil {
				return err
			}
		}
		if err := write(p, victim, 0xC3); err != nil {
			return err
		}
		ppn := f.l2p[victim]
		if !f.Device().CorruptPage(f.geo.AddrOfPage(ppn)) {
			return errors.New("nothing to corrupt at the victim's page")
		}
		erases := f.Device().Stats().Erases
		// Churn the other pages until the victim's page has been relocated
		// and its old block erased.
		for i := 0; f.l2p[victim] == ppn || f.Device().Stats().Erases < erases+4; i++ {
			if i > 20000 {
				return errors.New("GC never relocated the corrupted page")
			}
			if err := write(p, other(), byte(i*7)); err != nil {
				return err
			}
		}
		dst := dirty(f)
		for lpn := int64(0); lpn < hot; lpn++ {
			err := f.ReadPageInto(p, lpn, dst)
			if lpn == victim {
				if !errors.Is(err, ErrCorrupt) {
					return fmt.Errorf("relocated corrupted page: err %v, want ErrCorrupt", err)
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("lpn %d: %v", lpn, err)
			}
			if !bytes.Equal(dst, fill(f, latest[lpn])) {
				return fmt.Errorf("lpn %d: wrong payload after buffer recycling", lpn)
			}
		}
		return nil
	})
	if f.Stats().CorruptReads != 1 {
		t.Fatalf("CorruptReads = %d, want 1", f.Stats().CorruptReads)
	}
}
