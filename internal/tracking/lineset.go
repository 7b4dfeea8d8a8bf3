package tracking

import "repro/internal/pmem"

// lineSetCap bounds the distinct lines one persist phase collects. The
// largest phase of the structures built on the engine touches well under
// half of it; lines beyond it are written back at once, unmerged.
const lineSetCap = 16

// lineSet collects the cache lines a persist phase writes back, so that
// the phase flushes each distinct line once: add records the line of an
// address (or writes it back at once if the set is full), and flush
// writes back every recorded line, in first-touch order, at one site.
// The caller adds a line after its stores to it and flushes before the
// phase's PFence or PSync, so the one write-back carries the line's
// newest content of the epoch (see the package comment, "One write-back
// per line"). Each line is named by the first address added in it, an
// address of the phase's own objects, never Null: line 0 holds Null and
// can hold the start of a region. The set lives on the caller's stack;
// it never allocates.
type lineSet struct {
	ctx   *pmem.ThreadCtx
	site  pmem.Site
	n     int
	addrs [lineSetCap]pmem.Addr
}

// add records the line holding a.
func (ls *lineSet) add(a pmem.Addr) {
	line := a / pmem.LineBytes
	for _, b := range ls.addrs[:ls.n] {
		if b/pmem.LineBytes == line {
			return
		}
	}
	if ls.n == lineSetCap {
		ls.ctx.PWB(ls.site, a)
		return
	}
	ls.addrs[ls.n] = a
	ls.n++
}

// addRange records every line of the words [a, a+words*8), each named by
// its first address inside the range.
func (ls *lineSet) addRange(a pmem.Addr, words int) {
	if words <= 0 {
		return
	}
	end := a + pmem.Addr(words*pmem.WordSize)
	for ; a < end; a = (a/pmem.LineBytes + 1) * pmem.LineBytes {
		ls.add(a)
	}
}

// flush writes back every recorded line once and empties the set.
func (ls *lineSet) flush() {
	for _, a := range ls.addrs[:ls.n] {
		ls.ctx.PWB(ls.site, a)
	}
	ls.n = 0
}
