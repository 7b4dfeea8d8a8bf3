//go:build !amd64 || race

package pmem

import "sync/atomic"

// Sequentially-consistent volatile-view accessors, used where the plain
// x86-TSO implementation in words_relaxed.go does not apply: under the
// race detector (whose happens-before analysis needs sync/atomic calls)
// and on architectures whose memory model we have not audited against the
// paper's x86 assumptions.

func (p *Pool) loadWord(wi int) uint64 { return atomic.LoadUint64(&p.words[wi]) }

// ctlFast reads the crash-control word on the hot path.
func (p *Pool) ctlFast() uint32 { return atomic.LoadUint32(&p.crashCtl) }

// Load atomically reads the word at a from the volatile view. Same shape
// as the x86-TSO variant in words_relaxed.go, with sequentially-consistent
// accesses.
func (ctx *ThreadCtx) Load(a Addr) uint64 {
	p := ctx.pool
	wi := uint64(a)>>3 | uint64(a)<<61
	if wi-1 >= uint64(p.wordLimit) {
		panic(badAddrError(a))
	}
	ctl := atomic.LoadUint32(&p.crashCtl)
	if ctl != 0 {
		if ctl&ctlCrashed != 0 {
			panic(ErrCrashed)
		}
		if ctl&ctlCounting != 0 && p.crashAfter.Add(-1) == 0 {
			atomic.StoreUint32(&p.crashCtl, ctlCrashed)
			panic(ErrCrashed)
		}
	}
	return atomic.LoadUint64(&p.words[wi])
}

// LoadAndPersist is Load for a dirty-discipline word (see flushavoid.go
// and the x86-TSO variant in words_relaxed.go): the first observer of a
// dirty-tagged word clears the tag and pays the write-back; clean words
// read at plain-Load cost.
// Every rare case — bad address, pending crash, dirty word — funnels
// through the single lapSlow call site so the fast path stays within the
// inlining budget, mirroring the x86-TSO variant.
func (ctx *ThreadCtx) LoadAndPersist(s Site, a Addr) uint64 {
	p := ctx.pool
	wi := uint64(a)>>3 | uint64(a)<<61
	if wi-1 < uint64(p.wordLimit) && atomic.LoadUint32(&p.crashCtl) == 0 {
		v := atomic.LoadUint64(&p.words[wi])
		if v&DirtyBit == 0 {
			return v
		}
	}
	return ctx.lapSlow(s, a)
}

func (p *Pool) storeWord(wi int, v uint64) { atomic.StoreUint64(&p.words[wi], v) }

func (p *Pool) casWord(wi int, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&p.words[wi], old, new)
}

// releaseVersion publishes word wi's version v, closing a strict-mode write
// (see beginWrite).
func (p *Pool) releaseVersion(wi int, v uint64) { atomic.StoreUint64(&p.wver[wi], v) }

// releaseDurable stores v as word wi's durable copy and then publishes its
// durable version ver, closing a commit (see commitWord).
func (p *Pool) releaseDurable(wi int, ver, v uint64) {
	atomic.StoreUint64(&p.durable[wi], v)
	atomic.StoreUint64(&p.dver[wi], ver)
}

// markDirty records that line holds a strict-mode write by thread
// writer (tid+1), for the crash adversary's evictions.
func (p *Pool) markDirty(line int, writer int32) {
	atomic.StoreUint32(&p.dirty[line], 1)
	atomic.StoreInt32(&p.writer[line], writer)
}
