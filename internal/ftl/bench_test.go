package ftl

import (
	"testing"

	"compstor/internal/flash"
	"compstor/internal/sim"
)

func benchFTL(b *testing.B) (*sim.Engine, *FTL) {
	eng := sim.NewEngine()
	geo := flash.Geometry{
		Channels: 16, DiesPerChan: 4, PlanesPerDie: 1,
		BlocksPerPlan: 64, PagesPerBlock: 64, PageSize: 4096,
	}
	dev := flash.NewDevice(eng, "nand", geo, flash.DefaultTiming())
	return eng, New(dev, DefaultConfig())
}

func BenchmarkSequentialWritePages(b *testing.B) {
	eng, f := benchFTL(b)
	data := make([]byte, f.PageSize())
	b.SetBytes(int64(f.PageSize()))
	eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := f.WritePage(p, int64(i)%f.LogicalPages(), data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	eng.Run()
}

// BenchmarkRandomReadPages reads into one reused buffer, so B/op stays
// below a page: a page copy allocated per read would show up here.
func BenchmarkRandomReadPages(b *testing.B) {
	eng, f := benchFTL(b)
	data := make([]byte, f.PageSize())
	eng.Go("prep", func(p *sim.Proc) {
		for lpn := int64(0); lpn < 512; lpn++ {
			f.WritePage(p, lpn, data)
		}
	})
	eng.Run()
	b.SetBytes(int64(f.PageSize()))
	b.ReportAllocs()
	eng.Go("r", func(p *sim.Proc) {
		lpn := int64(7)
		for i := 0; i < b.N; i++ {
			lpn = (lpn*1103515245 + 12345) % 512
			if lpn < 0 {
				lpn = -lpn
			}
			if err := f.ReadPageInto(p, lpn, data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	eng.Run()
}

func BenchmarkOverwriteChurnWithGC(b *testing.B) {
	eng, f := benchFTL(b)
	data := make([]byte, f.PageSize())
	b.SetBytes(int64(f.PageSize()))
	eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := f.WritePage(p, int64(i%128), data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	eng.Run()
	b.ReportMetric(f.Stats().WriteAmplification(), "write-amp")
}
