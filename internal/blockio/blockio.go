// Package blockio models the filesystem and block-I/O path of the simulated
// kernel: files with a write-back page cache, a single-spindle disk with a
// FIFO request queue, completion interrupts and bottom-half processing, and
// a pdflush-style background writeback daemon.
//
// The paper's §6 names "I/O performance characterization" (of the BG/L I/O
// nodes, and "on any cluster platform running Linux") as the next target for
// KTAU; this package gives the reproduction that surface. Every path is
// instrumented with the same KTAU macros as the rest of the kernel:
// generic_file_read / generic_file_write / submit_bio in the caller's
// process context (GroupVFS), do_IRQ[disk] on completion (GroupIRQ), and
// end_request bottom-half processing charged to whatever process was
// interrupted (GroupBH/GroupVFS).
package blockio

import (
	"fmt"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/ktau"
)

// PageSize is the cache page granularity.
const PageSize = 4096

// DiskSpec models the device.
type DiskSpec struct {
	// Seek is the average positioning cost paid when a request's first page
	// is not sequential with the previously completed request.
	Seek time.Duration
	// PerPage is the media transfer time for one page.
	PerPage time.Duration
	// IRQCost is the completion interrupt handler cost.
	IRQCost time.Duration
	// EndRequestCost is the per-request bottom-half completion cost.
	EndRequestCost time.Duration
	// CopyPerPage is the page-cache copy cost (hit path, per page).
	CopyPerPage time.Duration
	// Readahead is how many extra sequential pages a miss schedules.
	Readahead int
	// DirtyLimitPages throttles writers: a write that would push the dirty
	// count past this limit synchronously flushes first.
	DirtyLimitPages int
}

// DefaultDiskSpec models a ~2000s-era IDE disk: ~8 ms seek, ~30 MB/s media.
func DefaultDiskSpec() DiskSpec {
	return DiskSpec{
		Seek:            8 * time.Millisecond,
		PerPage:         130 * time.Microsecond, // ~30 MB/s
		IRQCost:         9 * time.Microsecond,
		EndRequestCost:  14 * time.Microsecond,
		CopyPerPage:     6 * time.Microsecond,
		Readahead:       8,
		DirtyLimitPages: 1024,
	}
}

// request is one queued disk operation (a run of sequential pages).
type request struct {
	file  *File
	page  int64 // first page
	count int   // pages
	write bool
	wq    *kernel.WaitQueue // woken at completion
	done  *bool
}

// Disk is one node's block device plus its request queue.
type Disk struct {
	k    *kernel.Kernel
	spec DiskSpec
	name string

	queue    []request
	busy     bool
	lastPage int64 // head position, for seek modelling

	evIRQ        ktau.EventID
	evSubmitBio  ktau.EventID
	evEndRequest ktau.EventID
	evFileRead   ktau.EventID
	evFileWrite  ktau.EventID
	evFsync      ktau.EventID
	evPdflush    ktau.EventID

	dirtyPages int

	// Stats counts device activity.
	Stats struct {
		Requests   uint64
		PagesRead  uint64
		PagesWrite uint64
		Seeks      uint64
		CacheHits  uint64
		CacheMiss  uint64
	}
}

// NewDisk attaches a disk to a node's kernel.
func NewDisk(k *kernel.Kernel, name string, spec DiskSpec) *Disk {
	m := k.Ktau()
	if spec.Readahead < 0 {
		spec.Readahead = 0
	}
	if spec.DirtyLimitPages <= 0 {
		spec.DirtyLimitPages = 1024
	}
	return &Disk{
		k: k, spec: spec, name: name, lastPage: -1,
		evIRQ:        k.DevIRQEvent(name),
		evSubmitBio:  m.Event("submit_bio", ktau.GroupVFS),
		evEndRequest: m.Event("end_request", ktau.GroupVFS),
		evFileRead:   m.Event("generic_file_read", ktau.GroupVFS),
		evFileWrite:  m.Event("generic_file_write", ktau.GroupVFS),
		evFsync:      m.Event("sys_fsync", ktau.GroupSyscall),
		evPdflush:    m.Event("pdflush_writeback", ktau.GroupVFS),
	}
}

// Kernel returns the owning kernel.
func (d *Disk) Kernel() *kernel.Kernel { return d.k }

// submit enqueues a request and starts the device if idle. Engine context.
func (d *Disk) submit(r request) {
	d.queue = append(d.queue, r)
	if !d.busy {
		d.startNext()
	}
}

// startNext begins servicing the head request: seek + media transfer, then
// a completion interrupt whose bottom half finishes the request.
func (d *Disk) startNext() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	d.busy = true
	r := d.queue[0]
	d.queue = d.queue[1:]
	d.Stats.Requests++

	dur := time.Duration(r.count) * d.spec.PerPage
	if r.page != d.lastPage {
		dur += d.spec.Seek
		d.Stats.Seeks++
	}
	d.lastPage = r.page + int64(r.count)
	if r.write {
		d.Stats.PagesWrite += uint64(r.count)
	} else {
		d.Stats.PagesRead += uint64(r.count)
	}

	eng := d.k.Engine()
	eng.After(dur, func() {
		// Completion interrupt with end_request bottom-half processing.
		d.k.RaiseDevIRQ(d.name, func(b *kernel.BHCtx) {
			b.Span(d.evEndRequest, d.spec.EndRequestCost)
			b.Defer(func() {
				if r.done != nil {
					*r.done = true
				}
				if r.wq != nil {
					r.wq.WakeAllFrom(d.k, b.CPU().ID)
				}
				if r.write {
					d.dirtyPages -= r.count
					if d.dirtyPages < 0 {
						d.dirtyPages = 0
					}
				}
				d.startNext()
			})
		})
	})
}

// File is an open file backed by the disk, with a per-file page cache.
type File struct {
	d      *Disk
	Name   string
	pages  map[int64]bool // resident in page cache
	dirty  map[int64]bool // resident and dirty
	nextID int64          // base page number on the virtual platter
	base   int64
}

// Open creates (or truncates) a file on the disk. basePage positions it on
// the platter; files at distant bases force seeks between each other.
func (d *Disk) Open(name string, basePage int64) *File {
	return &File{
		d: d, Name: name,
		pages: make(map[int64]bool),
		dirty: make(map[int64]bool),
		base:  basePage,
	}
}

func (f *File) pageOf(off int64) int64 { return f.base + off/PageSize }

// pagesSpanned returns the platter page range [first, first+count) covering
// [off, off+n).
func pagesSpanned(f *File, off int64, n int) (int64, int) {
	first := f.pageOf(off)
	last := f.pageOf(off + int64(n) - 1)
	return first, int(last-first) + 1
}

// Read reads n bytes at off through the syscall + VFS + block path: page
// cache hits cost only the copy; misses submit a bio (with readahead) and
// block the caller until the completion interrupt. Task-goroutine context.
func (f *File) Read(u *kernel.UCtx, off int64, n int) {
	if n <= 0 {
		return
	}
	d := f.d
	u.Syscall("sys_read", func(kc *kernel.KCtx) {
		kc.Entry(d.evFileRead)
		first, count := pagesSpanned(f, off, n)
		for p := first; p < first+int64(count); p++ {
			if f.pages[p] {
				d.Stats.CacheHits++
				kc.Use(d.spec.CopyPerPage)
				continue
			}
			d.Stats.CacheMiss++
			// Miss: read this page plus readahead in one request.
			run := 1 + d.spec.Readahead
			kc.Entry(d.evSubmitBio)
			kc.Use(15 * time.Microsecond) // request setup
			wq := kernel.NewWaitQueue("disk-read")
			done := false
			d.submit(request{file: f, page: p, count: run, wq: wq, done: &done})
			for !done {
				kc.Wait(wq)
			}
			kc.Exit(d.evSubmitBio)
			for q := p; q < p+int64(run); q++ {
				f.pages[q] = true
			}
			kc.Use(d.spec.CopyPerPage)
		}
		kc.Exit(d.evFileRead)
	})
}

// Write writes n bytes at off with write-back semantics: data lands in the
// page cache and is flushed later (by pdflush or fsync); writers are
// throttled when the dirty limit is exceeded. Task-goroutine context.
func (f *File) Write(u *kernel.UCtx, off int64, n int) {
	if n <= 0 {
		return
	}
	d := f.d
	u.Syscall("sys_write", func(kc *kernel.KCtx) {
		kc.Entry(d.evFileWrite)
		first, count := pagesSpanned(f, off, n)
		for p := first; p < first+int64(count); p++ {
			// Dirty throttling: a writer at the limit synchronously flushes
			// its own dirty pages before dirtying more.
			if d.dirtyPages >= d.spec.DirtyLimitPages && len(f.dirty) > 0 {
				f.flushLocked(kc, d.evFileWrite)
			}
			kc.Use(d.spec.CopyPerPage)
			f.pages[p] = true
			if !f.dirty[p] {
				f.dirty[p] = true
				d.dirtyPages++
			}
		}
		kc.Exit(d.evFileWrite)
	})
}

// Fsync flushes the file's dirty pages and waits for the disk.
func (f *File) Fsync(u *kernel.UCtx) {
	d := f.d
	u.Syscall("sys_fsync", func(kc *kernel.KCtx) {
		kc.Entry(d.evFsync)
		f.flushLocked(kc, d.evFsync)
		kc.Exit(d.evFsync)
	})
}

// flushLocked writes out all dirty pages of the file as sequential runs and
// waits for completion. Kernel context (inside a syscall body).
func (f *File) flushLocked(kc *kernel.KCtx, _ ktau.EventID) {
	d := f.d
	for {
		run, count := f.nextDirtyRun()
		if count == 0 {
			return
		}
		kc.Entry(d.evSubmitBio)
		kc.Use(15 * time.Microsecond)
		wq := kernel.NewWaitQueue("disk-write")
		done := false
		d.submit(request{file: f, page: run, count: count, write: true, wq: wq, done: &done})
		for !done {
			kc.Wait(wq)
		}
		kc.Exit(d.evSubmitBio)
		for p := run; p < run+int64(count); p++ {
			delete(f.dirty, p)
		}
	}
}

// nextDirtyRun finds the lowest dirty page and the length of the contiguous
// dirty run starting there.
func (f *File) nextDirtyRun() (int64, int) {
	if len(f.dirty) == 0 {
		return 0, 0
	}
	var first int64
	found := false
	for p := range f.dirty {
		if !found || p < first {
			first, found = p, true
		}
	}
	count := 0
	for f.dirty[first+int64(count)] {
		count++
		if count >= 256 {
			break
		}
	}
	return first, count
}

// DirtyCount reports the file's dirty pages (tests).
func (f *File) DirtyCount() int { return len(f.dirty) }

// StartPdflush spawns the background write-back daemon: every interval it
// flushes all dirty pages of the given files.
func (d *Disk) StartPdflush(interval time.Duration, files ...*File) *kernel.Task {
	return d.k.Spawn(fmt.Sprintf("pdflush-%s", d.name), func(u *kernel.UCtx) {
		for {
			u.Sleep(interval)
			for _, f := range files {
				if f.DirtyCount() == 0 {
					continue
				}
				u.Syscall("sys_pdflush", func(kc *kernel.KCtx) {
					kc.Entry(d.evPdflush)
					f.flushLocked(kc, d.evPdflush)
					kc.Exit(d.evPdflush)
				})
			}
		}
	}, kernel.SpawnOpts{Kind: kernel.KindKThread})
}
