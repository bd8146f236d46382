package main

import (
	"encoding/binary"
	"math"
	"sync"
	"syscall"
	"time"
)

// The machine this benchmark runs on shares its cores and caches with other
// tenants, and the speed of memory- and branch-heavy code changes by 10-60 %
// from one minute to the next as their load comes and goes. A yardstick pass
// is a fixed amount of such work, timed between the operations of the same
// run. Every set-up and operation time is scaled by yardstickRefMS over the
// median of the passes around it (localPassMS), so it reads as at the speed
// where a pass takes yardstickRefMS. README.md (The yardstick) gives the
// effect on the spread. The yardstick's code is part of the benchmark: a
// change measured against its parent must not edit it, nor yardstickRefMS.
const (
	// yardstickRefMS is the reference time of one pass: about its median
	// on the 2-vCPU Xeon of the first baseline (see README.md).
	yardstickRefMS = 10.0
	// yardstickEvery is how often a pass runs between operations. Set-up
	// runs one before every repeat that is due.
	yardstickEvery = 250 * time.Millisecond
	// passWindow is how many passes on each side of a time localPassMS
	// takes the median of.
	passWindow = 2
)

// Sizes of the yardstick's regions.
const (
	nearSlots  = 1 << 16 // uint32 slots: 256 KiB
	farSlots   = 1 << 20 // uint32 slots: 4 MiB
	tableWords = 1 << 19 // uint64 counters: 4 MiB
	branchLen  = 1 << 16
	totalBytes = 4*nearSlots + 4*farSlots + 8*tableWords + branchLen
)

// yardstick holds the kernels' memory and the run's pass times. Its gate
// keeps the passes and the operations apart: an operation holds it shared,
// a pass exclusively, so a pass times the machine and not the workload.
//
// The memory is an anonymous mapping outside the Go heap, so the collector
// neither scans it nor counts it toward the heap goal, and the workload's
// garbage collection runs as it would without the yardstick. Its pages are
// all touched before the run begins and stay resident, so the resident-set
// windows subtract them exactly.
type yardstick struct {
	gate sync.RWMutex

	mu   sync.Mutex // guards last
	last time.Time  // when the last pass began

	samples []float64 // pass times in ms, written under gate held exclusively
	// rssMB holds the peak resident set, less the yardstick's, of each
	// window between two passes (see windowPeakMB); rssErr the first error
	// reading it. Both are written under gate held exclusively.
	rssMB  []float64
	rssErr error

	mem       []byte // the mapping the regions below live in
	near, far []byte // single cycles through nearSlots and farSlots slots
	table     []byte // counters updated at random
	branches  []byte // random bytes that steer unpredictable branches
}

// newYardstick maps and fills the kernels' memory; close releases it.
func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, totalBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	y := &yardstick{
		mem:      mem,
		near:     mem[:4*nearSlots],
		far:      mem[4*nearSlots : 4*(nearSlots+farSlots)],
		table:    mem[4*(nearSlots+farSlots) : 4*(nearSlots+farSlots)+8*tableWords],
		branches: mem[4*(nearSlots+farSlots)+8*tableWords:],
	}
	cycle(y.near, 1)
	cycle(y.far, 2)
	x := uint64(5)
	for i := range y.branches {
		x = xorshift(x)
		y.branches[i] = byte(x)
	}
	for i := range y.table {
		y.table[i] = 0 // touch every page, so it is resident from here on
	}
	return y, nil
}

// residentMB is the yardstick's share of the resident set: its mapping,
// all of whose pages newYardstick touches.
func (y *yardstick) residentMB() float64 { return float64(len(y.mem)) / (1 << 20) }

func (y *yardstick) close() error { return syscall.Munmap(y.mem) }

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	return x ^ x<<17
}

// cycle fills next, a slice of little-endian uint32 slots, so that following
// next from any slot visits every slot in a seeded random order.
func cycle(next []byte, seed uint64) {
	size := len(next) / 4
	order := make([]uint32, size)
	for i := range order {
		order[i] = uint32(i)
	}
	x := seed
	for i := size - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	for i, slot := range order {
		binary.LittleEndian.PutUint32(next[4*slot:], order[(i+1)%size])
	}
}

// maybePass runs a pass when yardstickEvery has passed since the last one
// began (or none has run). The caller must not hold the gate.
func (y *yardstick) maybePass() {
	y.mu.Lock()
	due := y.last.IsZero() || now().Sub(y.last) >= yardstickEvery
	if due {
		y.last = now() // so no other worker starts one too
	}
	y.mu.Unlock()
	if due {
		y.pass()
	}
}

// pass closes the resident-set window and times one pass, once no
// operation holds the gate. The first pass only opens the first window.
func (y *yardstick) pass() {
	y.gate.Lock()
	y.mu.Lock()
	y.last = now()
	y.mu.Unlock()
	mb, err := windowPeakMB()
	if err != nil && y.rssErr == nil {
		y.rssErr = err
	}
	if err == nil && len(y.samples) > 0 {
		y.rssMB = append(y.rssMB, mb-y.residentMB())
	}
	y.samples = append(y.samples, y.passMS())
	y.gate.Unlock()
}

// done is the number of passes run so far; read it holding the gate.
func (y *yardstick) done() int { return len(y.samples) }

// localPassMS is the median of the passes around a time when done passes
// had run: up to passWindow+1 before it and passWindow after it. A
// single-worker loop runs no pass during an operation, so for an operation
// that began there, passes[done-1] came just before it and passes[done]
// just after.
func localPassMS(passes []float64, done int) float64 {
	lo := max(0, done-1-passWindow)
	hi := min(len(passes), done+passWindow)
	if lo >= hi {
		return median(passes)
	}
	return median(passes[lo:hi])
}

// passMS times each kernel once and returns the geometric mean of their
// times in ms, so no one kernel dominates the pass.
func (y *yardstick) passMS() float64 {
	kernels := []func() uint64{
		func() uint64 { return chase(y.near, 1<<20) },
		func() uint64 { return chase(y.far, 1<<17) },
		y.update,
		y.branch,
	}
	logSum, sink := 0.0, uint64(0)
	for _, k := range kernels {
		t0 := now()
		sink += k()
		logSum += math.Log(float64(now().Sub(t0)) / 1e6)
	}
	y.table[sink%uint64(len(y.table))]++ // keep every result live
	return math.Exp(logSum / float64(len(kernels)))
}

// chase follows next for steps loads, each depending on the one before.
func chase(next []byte, steps int) uint64 {
	i := uint32(0)
	for k := 0; k < steps; k++ {
		i = binary.LittleEndian.Uint32(next[4*i:])
	}
	return uint64(i)
}

func (y *yardstick) update() uint64 {
	x, mask := uint64(88172645463325252), uint64(len(y.table)/8-1)
	for k := 0; k < 1<<20; k++ {
		x = xorshift(x)
		at := y.table[8*(x&mask):]
		binary.LittleEndian.PutUint64(at, binary.LittleEndian.Uint64(at)+x)
	}
	return x
}

func (y *yardstick) branch() uint64 {
	var s uint64
	for rep := 0; rep < 16; rep++ {
		for _, c := range y.branches {
			switch {
			case c&1 != 0:
				s += uint64(c)
			case c&2 != 0:
				s ^= uint64(c) << 3
			default:
				s -= 7
			}
		}
	}
	return s
}
