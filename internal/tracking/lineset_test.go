package tracking

import (
	"testing"

	"repro/internal/pmem"
)

// lineCounts returns how many distinct cache lines the regions cover and
// how many write-backs flushing each region on its own would issue.
func lineCounts(regions ...Region) (distinct, perRegion int) {
	seen := map[pmem.Addr]bool{}
	for _, r := range regions {
		first := r.Addr / pmem.LineBytes
		last := (r.Addr + pmem.Addr((r.Words-1)*pmem.WordSize)) / pmem.LineBytes
		for l := first; l <= last; l++ {
			seen[l] = true
			perRegion++
		}
	}
	return len(seen), perRegion
}

// TestPublishFlushesEachLineOnce: an insert's two fresh nodes and its
// descriptor come from AllocLocal back to back and share lines. Publish
// writes back each distinct line once, at the desc+new site, and every
// word of the three objects is durable after it.
func TestPublishFlushesEachLineOnce(t *testing.T) {
	for _, mode := range []pmem.Mode{pmem.ModeStrict, pmem.ModeFast} {
		pool, eng := newEngine(t, mode)
		th := eng.Thread(pool.NewThread(1))
		c := th.Ctx()
		_, i1 := fakeNode(c, 1)
		n1, n2 := c.AllocLocal(5), c.AllocLocal(5)
		for w := 0; w < 5; w++ {
			c.Store(n1+pmem.Addr(w*pmem.WordSize), uint64(10+w))
			c.Store(n2+pmem.Addr(w*pmem.WordSize), uint64(20+w))
		}
		th.Invoke()
		d := th.NewDesc(1, 1, []AffectEntry{{InfoField: i1, Observed: 0, Untag: true}}, nil, []pmem.Addr{n1, n2})
		regions := []Region{{d, th.DescWords(d)}, {n1, 5}, {n2, 5}}
		distinct, perRegion := lineCounts(regions...)
		if distinct >= perRegion {
			t.Fatalf("layout shares no line: %d distinct, %d per region", distinct, perRegion)
		}

		base := pool.Snapshot()
		th.Publish(d, regions[1:]...)
		st := pool.Snapshot().Sub(base)
		if got := st.PWBsBySite["test/pwb-desc+new"]; got != uint64(distinct) {
			t.Fatalf("mode %d: Publish issued %d desc+new pwbs for %d distinct lines (%d per region)",
				mode, got, distinct, perRegion)
		}
		if mode != pmem.ModeStrict {
			continue
		}
		for _, r := range regions {
			for w := 0; w < r.Words; w++ {
				a := r.Addr + pmem.Addr(w*pmem.WordSize)
				if got, want := pool.DurableLoad(a), c.Load(a); got != want {
					t.Fatalf("word %#x durable %#x after Publish, volatile %#x", uint64(a), got, want)
				}
			}
		}
	}
}

// TestHelpCleanupFlushesEachLineOnce: a completed Help whose NewSet and
// AffectSet info fields share lines writes back each distinct line once
// at the cleanup site, and every untag is durable after it.
func TestHelpCleanupFlushesEachLineOnce(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	c := th.Ctx()
	var infos []pmem.Addr
	for i := 0; i < 6; i++ {
		_, info := fakeNode(c, uint64(i))
		infos = append(infos, info)
	}
	affect := []AffectEntry{
		{InfoField: infos[0], Untag: true},
		{InfoField: infos[1], Untag: true},
		{InfoField: infos[2]}, // removed: stays tagged, not flushed
		{InfoField: infos[3], Untag: true},
		{InfoField: infos[4], Untag: true},
	}
	news := []pmem.Addr{infos[5]}
	untagged := append([]pmem.Addr{infos[0], infos[1], infos[3], infos[4]}, news...)
	var fields []Region
	for _, a := range untagged {
		fields = append(fields, Region{a, 1})
	}
	distinct, perField := lineCounts(fields...)
	if distinct >= perField {
		t.Fatalf("layout shares no line: %d distinct, %d fields", distinct, perField)
	}

	th.Invoke()
	d := th.NewDesc(1, 1, affect, nil, news)
	c.Store(news[0], Tagged(d))
	th.Publish(d)
	base := pool.Snapshot()
	th.Help(d)
	st := pool.Snapshot().Sub(base)
	if th.Result(d) != 1 {
		t.Fatalf("Help did not complete: result %d", th.Result(d))
	}
	if got := st.PWBsBySite["test/pwb-info-cleanup"]; got != uint64(distinct) {
		t.Fatalf("cleanup issued %d pwbs for %d distinct lines (%d fields)", got, distinct, perField)
	}
	for _, a := range untagged {
		if v := pool.DurableLoad(a); v != Untagged(d) {
			t.Fatalf("info %#x durable %#x after Help, want untagged %#x", uint64(a), v, Untagged(d))
		}
	}
	if v := pool.DurableLoad(infos[2]); v != Tagged(d) {
		t.Fatalf("removed node's info durable %#x, want tagged %#x", v, Tagged(d))
	}
}

// TestBacktrackFlushesEachLineOnce: a Help that fails at its third
// AffectSet entry untags the first two, which share a line, with one
// write-back at the backtrack site.
func TestBacktrackFlushesEachLineOnce(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	c := th.Ctx()
	_, i1 := fakeNode(c, 1)
	_, i2 := fakeNode(c, 2)
	_, i3 := fakeNode(c, 3)
	if i1/pmem.LineBytes != i2/pmem.LineBytes {
		t.Fatalf("info fields %#x and %#x on different lines", uint64(i1), uint64(i2))
	}
	c.Store(i3, 42) // the observed value no longer holds
	th.Invoke()
	d := th.NewDesc(1, 1, []AffectEntry{
		{InfoField: i1, Untag: true}, {InfoField: i2, Untag: true}, {InfoField: i3, Untag: true},
	}, nil, nil)
	th.Publish(d)
	base := pool.Snapshot()
	th.Help(d)
	st := pool.Snapshot().Sub(base)
	if got := st.PWBsBySite["test/pwb-info-backtrack"]; got != 1 {
		t.Fatalf("backtrack issued %d pwbs for one line", got)
	}
	for _, a := range []pmem.Addr{i1, i2} {
		if v := pool.DurableLoad(a); v != Untagged(d) {
			t.Fatalf("info %#x durable %#x after backtrack, want %#x", uint64(a), v, Untagged(d))
		}
	}
}

// TestLineSetOverflowFlushesEveryLine: a phase touching more distinct
// lines than the set holds still writes back every line, each once, and
// leaves every word durable.
func TestLineSetOverflowFlushesEveryLine(t *testing.T) {
	pool, eng := newEngine(t, pmem.ModeStrict)
	th := eng.Thread(pool.NewThread(1))
	c := th.Ctx()
	var fresh []Region
	for i := 0; i < lineSetCap+4; i++ {
		a := c.AllocLines(1)
		c.Store(a, uint64(i+1))
		fresh = append(fresh, Region{a, 1})
	}
	th.Invoke()
	d := th.NewDesc(1, 1, nil, nil, nil)
	distinct, _ := lineCounts(append([]Region{{d, th.DescWords(d)}}, fresh...)...)
	base := pool.Snapshot()
	th.Publish(d, fresh...)
	st := pool.Snapshot().Sub(base)
	if got := st.PWBsBySite["test/pwb-desc+new"]; got != uint64(distinct) {
		t.Fatalf("Publish issued %d pwbs for %d distinct lines", got, distinct)
	}
	for i, r := range fresh {
		if v := pool.DurableLoad(r.Addr); v != uint64(i+1) {
			t.Fatalf("fresh line %d durable %d, want %d", i, v, i+1)
		}
	}
}

// TestLineSetAllocationFree: collecting and flushing a phase's lines
// allocates nothing.
func TestLineSetAllocationFree(t *testing.T) {
	pool, _ := newEngine(t, pmem.ModeFast)
	c := pool.NewThread(1)
	a := c.AllocLocal(40)
	site := pool.RegisterSite("test/lineset")
	allocs := testing.AllocsPerRun(100, func() {
		ls := lineSet{ctx: c, site: site}
		ls.addRange(a, 40)
		ls.add(a + 8)
		ls.flush()
	})
	if allocs != 0 {
		t.Fatalf("lineSet allocated %.1f times per phase", allocs)
	}
}
