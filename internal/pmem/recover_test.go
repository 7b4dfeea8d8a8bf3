package pmem

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// recoverFull is the restore Recover replaced, kept as the reference: it
// copies every allocated word's durable value and version into the
// volatile view and clears every line's dirty flag, written or not.
func (p *Pool) recoverFull() {
	limit := p.AllocatedWords()
	for wi := 0; wi < limit; wi++ {
		p.storeWord(wi, atomic.LoadUint64(&p.durable[wi]))
		atomic.StoreUint64(&p.wver[wi], atomic.LoadUint64(&p.dver[wi]))
	}
	for line := range p.dirty {
		atomic.StoreUint32(&p.dirty[line], 0)
	}
	p.rearm()
}

// recoverTwin is one of the two pools the differential test drives with
// the same program: one recovers with Recover, the other with recoverFull.
type recoverTwin struct {
	p    *Pool
	ctxs []*ThreadCtx
}

// TestRecoverDirtyLinesMatchesFullRestore checks Recover's clean-line
// invariant: over 100 seeds, twin strict pools run the same deterministic
// multi-context program (Store, successful and failed CAS, StoreDurable,
// PWB/PWBRange, PFence, PSync) through four crash/recover cycles under a
// drop-all, a random and a commit-all adversary. Before each crash the
// pools' dirty flags must equal the lines the program wrote since the last
// recovery (the eviction adversary draws one random value per dirty line,
// so the dirty set is part of the crash state), and the crash must leave
// identical durable images. After recovery, every allocated word must read
// its durable value, equal the reference twin's, and carry an even version
// no older than its durable one.
//
// Removing markDirty from Store, CAS or StoreDurable, or inverting
// Recover's dirty test, makes it fail.
func TestRecoverDirtyLinesMatchesFullRestore(t *testing.T) {
	const (
		threads = 3
		cycles  = 4
	)
	var cleanSeen, dirtySeen int
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		twins := [2]*recoverTwin{}
		for i := range twins {
			twins[i] = &recoverTwin{p: New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: threads})}
		}
		site := twins[0].p.RegisterSite("test/recover")
		twins[1].p.RegisterSite("test/recover")
		var regions [][2]int // [first word, words)
		for cycle := 0; cycle < cycles; cycle++ {
			for _, tw := range twins {
				tw.ctxs = tw.p.NewThreads(0, threads)
			}
			n := 8 + rng.Intn(200)
			a0, a1 := twins[0].ctxs[0].AllocWords(n), twins[1].ctxs[0].AllocWords(n)
			if a0 != a1 {
				t.Fatalf("seed %d: twins allocated %#x and %#x", seed, uint64(a0), uint64(a1))
			}
			regions = append(regions, [2]int{int(a0 / WordSize), n})
			written := map[int]bool{}
			for step := 0; step < 300; step++ {
				// Half the accesses go to this cycle's region, so older
				// regions keep clean lines across recoveries.
				r := regions[len(regions)-1]
				if rng.Intn(2) == 0 {
					r = regions[rng.Intn(len(regions))]
				}
				wi := r[0] + rng.Intn(r[1])
				a := Addr(wi * WordSize)
				tid := rng.Intn(threads)
				v := uint64(rng.Intn(4))
				op := rng.Intn(9)
				span := 1 + rng.Intn(r[0]+r[1]-wi)
				for _, tw := range twins {
					ctx := tw.ctxs[tid]
					switch op {
					case 0, 1:
						ctx.Store(a, v)
					case 2:
						if !ctx.CAS(a, ctx.Load(a), v) {
							t.Fatalf("seed %d: uncontended CAS failed", seed)
						}
					case 3:
						if ctx.CAS(a, ctx.Load(a)+1, v) {
							t.Fatalf("seed %d: CAS with a wrong expected value succeeded", seed)
						}
					case 4:
						ctx.StoreDurable(site, a, v)
					case 5:
						ctx.PWB(site, a)
					case 6:
						ctx.PWBRange(site, a, span)
					case 7:
						ctx.PFence()
					case 8:
						ctx.PSync()
					}
				}
				if op <= 2 || op == 4 {
					written[wi/LineWords] = true
				}
			}
			for i, tw := range twins {
				for line := range tw.p.dirty {
					if got := tw.p.dirty[line] != 0; got != written[line] {
						t.Fatalf("seed %d cycle %d twin %d: line %d dirty=%v, program wrote it: %v",
							seed, cycle, i, line, got, written[line])
					}
				}
			}
			pol := rng.Intn(3)
			polSeed := rng.Int63()
			for _, tw := range twins {
				tw.p.TriggerCrash()
				switch pol {
				case 0:
					tw.p.Crash(CrashPolicy{})
				case 1:
					tw.p.Crash(CrashPolicy{Rng: rand.New(rand.NewSource(polSeed)), CommitProb: 0.5, EvictProb: 0.3})
				case 2:
					tw.p.Crash(CrashPolicy{CommitAll: true})
				}
			}
			p0, p1 := twins[0].p, twins[1].p
			limit := p0.AllocatedWords()
			for wi := 0; wi < limit; wi++ {
				if p0.durable[wi] != p1.durable[wi] {
					t.Fatalf("seed %d cycle %d: durable word %d is %#x vs reference %#x",
						seed, cycle, wi, p0.durable[wi], p1.durable[wi])
				}
			}
			for line := 0; line < (limit+LineWords-1)/LineWords; line++ {
				if p0.dirty[line] != 0 {
					dirtySeen++
				} else {
					cleanSeen++
				}
			}
			p0.Recover()
			p1.recoverFull()
			for wi := 0; wi < limit; wi++ {
				v, d := p0.loadWord(wi), p0.durable[wi]
				if v != d {
					t.Fatalf("seed %d cycle %d: word %d reads %#x after Recover, durable %#x", seed, cycle, wi, v, d)
				}
				if ref := p1.loadWord(wi); v != ref {
					t.Fatalf("seed %d cycle %d: word %d reads %#x, reference %#x", seed, cycle, wi, v, ref)
				}
				if wv, dv := p0.wver[wi], p0.dver[wi]; wv&1 != 0 || wv < dv {
					t.Fatalf("seed %d cycle %d: word %d version %d, durable version %d", seed, cycle, wi, wv, dv)
				}
			}
		}
	}
	if cleanSeen == 0 || dirtySeen == 0 {
		t.Fatalf("program left %d clean and %d dirty lines at its crashes; both must occur", cleanSeen, dirtySeen)
	}
}
