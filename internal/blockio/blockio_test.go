package blockio

import (
	"testing"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/sim"
)

func rig(t *testing.T) (*sim.Engine, *kernel.Kernel, *Disk) {
	t.Helper()
	eng := sim.NewEngine()
	p := kernel.DefaultParams()
	p.CostJitter = 0
	p.PageFaultRate = 0
	k := kernel.NewKernel(eng, "io0", p, sim.NewRNG(3), ktau.Options{
		Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
		Mapping: true, RetainExited: true,
	})
	t.Cleanup(k.Shutdown)
	return eng, k, NewDisk(k, "hda", DefaultDiskSpec())
}

func drive(t *testing.T, eng *sim.Engine, limit time.Duration, tasks ...*kernel.Task) {
	t.Helper()
	deadline := eng.Now().Add(limit)
	for eng.Now() < deadline {
		all := true
		for _, tk := range tasks {
			if !tk.Exited() {
				all = false
			}
		}
		if all {
			return
		}
		if !eng.Step() {
			t.Fatal("engine dry")
		}
	}
	for _, tk := range tasks {
		if !tk.Exited() {
			t.Fatalf("task %s stuck (%v)", tk.Name(), tk.State())
		}
	}
}

func TestScatteredSyncedWritesSeek(t *testing.T) {
	eng, k, d := rig(t)
	f := d.Open("data", 0)
	const n = 10
	var elapsed time.Duration
	task := k.Spawn("scatter", func(u *kernel.UCtx) {
		t0 := u.Now()
		for i := 0; i < n; i++ {
			f.Write(u, int64(i)*100*PageSize, PageSize) // far apart: always seek
			f.Fsync(u)
		}
		elapsed = u.Now().Sub(t0)
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Minute, task)
	if d.Stats.Seeks < n {
		t.Errorf("seeks = %d, want >= %d", d.Stats.Seeks, n)
	}
	if elapsed < time.Duration(n)*d.spec.Seek {
		t.Errorf("elapsed %v below %d seeks' worth", elapsed, n)
	}
}

func TestWriteBackAndFsync(t *testing.T) {
	eng, k, d := rig(t)
	f := d.Open("log", 0)
	var writeTime, syncTime time.Duration
	task := k.Spawn("writer", func(u *kernel.UCtx) {
		t0 := u.Now()
		f.Write(u, 0, 128*1024)
		writeTime = u.Now().Sub(t0)
		if f.DirtyCount() == 0 {
			t.Error("write-back left no dirty pages")
		}
		t1 := u.Now()
		f.Fsync(u)
		syncTime = u.Now().Sub(t1)
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Minute, task)

	if writeTime > 2*time.Millisecond {
		t.Errorf("buffered write took %v; write-back should be memory-speed", writeTime)
	}
	if syncTime < 8*time.Millisecond {
		t.Errorf("fsync took %v; must wait for the disk", syncTime)
	}
	if f.DirtyCount() != 0 {
		t.Error("fsync left dirty pages")
	}
	if d.Stats.PagesWrite != 32 {
		t.Errorf("pages written = %d, want 32", d.Stats.PagesWrite)
	}
}

func TestDirtyThrottling(t *testing.T) {
	eng, k, _ := rig(t)
	spec := DefaultDiskSpec()
	spec.DirtyLimitPages = 16
	d2 := NewDisk(k, "hdb", spec)
	f := d2.Open("big", 0)
	var elapsed time.Duration
	task := k.Spawn("w", func(u *kernel.UCtx) {
		t0 := u.Now()
		f.Write(u, 0, 64*PageSize) // 64 pages >> 16-page limit
		elapsed = u.Now().Sub(t0)
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Minute, task)
	if d2.Stats.PagesWrite == 0 {
		t.Error("throttling never forced a writeout")
	}
	if elapsed < 5*time.Millisecond {
		t.Errorf("throttled write took only %v; should have waited on the disk", elapsed)
	}
}

func TestPdflushDrainsDirtyPages(t *testing.T) {
	eng, k, d := rig(t)
	f := d.Open("bg", 0)
	d.StartPdflush(20*time.Millisecond, f)
	task := k.Spawn("w", func(u *kernel.UCtx) {
		f.Write(u, 0, 16*PageSize)
		u.Sleep(200 * time.Millisecond)
		if f.DirtyCount() != 0 {
			t.Errorf("pdflush left %d dirty pages after 200ms", f.DirtyCount())
		}
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Minute, task)
	if d.Stats.PagesWrite == 0 {
		t.Error("pdflush wrote nothing")
	}
}

func TestKtauInstrumentationOfIOPath(t *testing.T) {
	eng, k, d := rig(t)
	f := d.Open("data", 0)
	task := k.Spawn("io", func(u *kernel.UCtx) {
		f.Write(u, 0, 4*PageSize)
		f.Fsync(u)
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Minute, task)
	eng.RunUntil(eng.Now().Add(5 * time.Millisecond))

	snap := k.Ktau().SnapshotTask(task.KD())
	for _, want := range []string{"generic_file_write", "sys_fsync", "submit_bio"} {
		if ev := snap.FindEvent(want); ev == nil || ev.Calls == 0 {
			t.Errorf("missing VFS event %s", want)
		}
	}
	// The blocked disk wait nests under submit_bio: its inclusive time
	// covers the seek, its exclusive time does not.
	bio := snap.FindEvent("submit_bio")
	if k.DurationOf(bio.Incl) < 8*time.Millisecond {
		t.Errorf("submit_bio incl %v should cover the disk wait", k.DurationOf(bio.Incl))
	}
	if k.DurationOf(bio.Excl) > 2*time.Millisecond {
		t.Errorf("submit_bio excl %v should exclude the disk wait", k.DurationOf(bio.Excl))
	}
	// Completion activity lands in interrupt context (kernel-wide view).
	kw := k.Ktau().KernelWide()
	if ev := kw.FindEvent("do_IRQ[hda]"); ev == nil || ev.Calls == 0 {
		t.Error("no disk completion IRQs recorded")
	}
	if ev := kw.FindEvent("end_request"); ev == nil || ev.Calls == 0 {
		t.Error("no end_request bottom-half activity recorded")
	}
}

func TestConcurrentWritersShareQueue(t *testing.T) {
	eng, k, d := rig(t)
	fa := d.Open("a", 0)
	fb := d.Open("b", 100_000)
	writer := func(f *File) func(u *kernel.UCtx) {
		return func(u *kernel.UCtx) {
			for off := int64(0); off < 256*1024; off += 4 * PageSize {
				f.Write(u, off, 4*PageSize)
				f.Fsync(u)
			}
		}
	}
	ta := k.Spawn("wa", writer(fa), kernel.SpawnOpts{})
	tb := k.Spawn("wb", writer(fb), kernel.SpawnOpts{})
	drive(t, eng, time.Minute, ta, tb)
	// Interleaved requests from files at distant platter positions force
	// extra seeks versus a single stream.
	if d.Stats.Seeks < 4 {
		t.Errorf("seeks = %d; interleaving two streams should seek repeatedly", d.Stats.Seeks)
	}
	if ta.VolWait == 0 || tb.VolWait == 0 {
		t.Error("writers never blocked on the disk")
	}
}
