//go:build amd64 && !race

package pmem

import "sync/atomic"

// This file implements the volatile-view word accessors with the memory
// ordering of the modeled machine. The paper's experiments ran on Intel
// Xeon, i.e. x86-TSO: aligned 8-byte loads and stores are single
// untorn instructions, stores of one core become visible to others in
// program order, and only read-modify-write operations carry a lock
// prefix. Simulated Load/Store therefore compile to plain MOVs — exactly
// the instruction mix of the modeled algorithm — instead of the
// sequentially-consistent XCHG that sync/atomic.StoreUint64 emits, which
// costs ~9x a plain store and serializes the pipeline on every simulated
// write.
//
// Two properties keep this sound in Go rather than only in assembly:
//
//   - every accessor's inlined body performs an atomic load of
//     p.crashCtl immediately before touching p.words, and the compiler
//     does not cache, sink or hoist plain memory operations across
//     atomic operations (they are ordered through the same memory
//     dependency chain in SSA), so a loop of simulated loads re-reads
//     memory every iteration just as a MOV loop does;
//   - the race detector cannot follow happens-before through plain
//     accesses, so race-enabled builds (and non-amd64 platforms, whose
//     hardware model we do not claim) use the sync/atomic implementation
//     in words_atomic.go instead. `go test -race ./...` exercises the
//     same simulation with full atomics.
//
// casWord stays a real LOCK CMPXCHG in both variants: CAS is a
// read-modify-write on any machine model, and its hardware cost is part
// of what the simulation measures.

func (p *Pool) loadWord(wi int) uint64 { return p.words[wi] }

// ctlFast reads the crash-control word on the hot path. Writers use
// sync/atomic (see setCrashCtl); on x86 an aligned 32-bit read observes
// those stores without a lock prefix, and Go's compiler re-executes the
// load on every call — it performs no loop-invariant load hoisting —
// which TestRelaxedSpinObservesRemoteStore pins down empirically.
func (p *Pool) ctlFast() uint32 { return p.crashCtl }

// Load atomically reads the word at a from the volatile view.
//
// This is the hottest operation of every simulated algorithm (list and
// tree traversals are load chains), so it is shaped to inline into the
// caller's loop: direct field reads, address checks folded into one
// compare, and every rare case handled inline with panics rather than
// outlined calls (a single real call would blow the inlining budget).
// Rotating a right by 3 moves the alignment bits to the top of the word,
// so `rot-1 >= wordLimit` rejects unaligned addresses (huge after the
// rotate), word 0 (Null) and anything past the arena in a single branch,
// and the rotate result doubles as the word index when it passes.
func (ctx *ThreadCtx) Load(a Addr) uint64 {
	p := ctx.pool
	wi := uint64(a)>>3 | uint64(a)<<61
	if wi-1 >= uint64(p.wordLimit) {
		panic(badAddrError(a))
	}
	if p.crashCtl != 0 {
		if p.crashCtl&ctlCrashed != 0 {
			panic(ErrCrashed)
		}
		if p.crashCtl&ctlCounting != 0 && p.crashAfter.Add(-1) == 0 {
			atomic.StoreUint32(&p.crashCtl, ctlCrashed)
			panic(ErrCrashed)
		}
	}
	return p.words[wi]
}

func (p *Pool) storeWord(wi int, v uint64) { p.words[wi] = v }

func (p *Pool) casWord(wi int, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&p.words[wi], old, new)
}

// releaseVersion publishes word wi's version v, closing a strict-mode write
// (see beginWrite). A plain store suffices: only the claiming writer stores
// the version, readers load it atomically, and on x86-TSO the store cannot
// pass the value store before it.
func (p *Pool) releaseVersion(wi int, v uint64) { p.wver[wi] = v }

// releaseDurable stores v as word wi's durable copy and then publishes its
// durable version ver, closing a commit (see commitWord). Plain stores
// suffice for the same reason as releaseVersion: the committer holds the
// word's claim, and x86-TSO keeps the two stores in order.
func (p *Pool) releaseDurable(wi int, ver, v uint64) {
	p.durable[wi] = v
	p.dver[wi] = ver
}

// markDirty records that line holds a strict-mode write by thread
// writer (tid+1), for the crash adversary's evictions, which read both
// only while every thread is parked.
func (p *Pool) markDirty(line int, writer int32) {
	p.dirty[line] = 1
	p.writer[line] = writer
}
