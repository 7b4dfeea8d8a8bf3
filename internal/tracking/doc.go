// Package tracking implements the Tracking approach of Attiya et al.,
// "Detectable Recovery of Lock-Free Data Structures" (PPoPP 2022),
// Algorithms 1 and 2 — the paper's primary contribution.
//
// Tracking derives detectably recoverable data structures from lock-free
// implementations that use descriptor-based helping. Each operation Op has
// an operation descriptor recording everything needed to complete it:
//
//   - AffectSet: the nodes Op tags (soft-locks) in order, as pairs of an
//     info-field address and the info value observed during the gather
//     phase;
//   - WriteSet: the fields Op changes, each with the old and new value so
//     the change is applied with CAS exactly once;
//   - NewSet: the info fields of nodes Op freshly allocated (pre-tagged
//     with Op's descriptor);
//   - result: initially Bottom, set exactly once when Op takes effect.
//
// The generic Help procedure (Algorithm 2) drives an operation through its
// tagging, update and cleanup phases and is idempotent, so any thread —
// including the recovery function after a crash — can (re-)run it.
//
// Detectability comes from two thread-private persistent variables per
// thread: CP (a check-point flag) and RD (a pointer to the descriptor of
// the thread's current operation). They are persisted, with the descriptor
// and any freshly allocated nodes, *before* Help first runs, so after a
// crash the recovery function can locate the descriptor, finish the
// operation via Help, and read its response from the result field.
//
// # One checkpoint word
//
// CP and RD live packed in one 8-byte word per thread, the checkpoint
// idiom of Cho et al. (PAPERS.md) applied to the paper's own pair. The
// word holds 0, meaning CP = 0 (no published attempt), or d | 1, meaning
// CP = 1 and RD = d; descriptors are 8-aligned, so bit 0 is free. Invoke
// stores 0 durably, skipping the store when the word already reads 0;
// Publish persists the descriptor and NewSet, fences, and stores d | 1;
// Recover and Engine.HelpInFlight read the one word.
//
// A word cannot persist torn, which is what removes Algorithm 1's BeginOp
// (RD := Null, pwb, pfence, CP := 1, pwb, psync): that step exists only so
// that a durable CP = 1 never pairs with a stale RD. Before Publish's psync
// the durable word is whatever Invoke left (0), a failed earlier attempt
// of the same operation (see below), or d | 1. In the first two cases
// recovery re-invokes the operation: d has tagged nothing, because Help
// starts only after the psync, and its pre-tagged NewSet nodes stay
// unreachable until the update CAS. In the last case d itself is durable,
// because the pfence orders the descriptor before the word.
//
// # One write-back per line
//
// Four persist phases write back a set of objects: Publish (the
// descriptor and the NewSet, Algorithm 1 line 19), Help's cleanup (every
// info field it untags), its backtrack, and the late visit's cleanup
// (lateCleanup). AllocLocal lays an operation's
// fresh nodes and descriptor out back to back, and neighbouring nodes'
// info fields share lines, so flushing object by object writes one line
// back two or three times in one fence epoch. Each of these phases
// instead collects the lines it writes (a lineSet) and writes back each
// distinct line once, after the phase's last store to it and before the
// phase's PFence or PSync. The tagging phase keeps one write-back per
// entry: its flush is interleaved with the abort path.
//
// Every crash state the rule reaches is one that flushing object by
// object reaches. A write-back captures its line when issued and may or
// may not complete, at the adversary's choice, until the next PSync. The
// kept write-back follows every store of the phase to its line, so it
// carries the newest content any skipped write-back of that line in the
// epoch would have carried. A skipped one carried older content, no fence
// separates it from the kept one, and the adversary may always leave it
// incomplete; a crash between the phase's stores and its flushes leaves
// only evictions, which both orders allow alike. So under drop-all,
// commit-all, random completion and eviction the rule's durable images
// are a subset of the object-by-object ones, and the volatile execution,
// which no write-back changes, is the same.
//
// # Profiles
//
// An Engine runs one of three profiles. Default, which New and Attach
// select, is the library's: BeginOp does nothing and read-only outcomes
// persist nothing. Paper is Algorithm 1 as the paper measures it: BeginOp
// issues the paper's exact instructions and sites on the packed word
// (store 0, pwb at the RD site, pfence, store 1, pwb at the CP site,
// psync), and internal/rlist publishes its read-only outcomes with an
// early result (the red code). The paper-figure experiments pin Paper, so
// the figures count what the paper counts. Full is Paper without the
// read-only optimization: the list runs read-only outcomes through Help.
//
// # Read-only operations persist nothing
//
// The recovery contract already covers an operation that crashed before
// it responded and left CP = 0: Recover reports ok = false and the
// operation is re-invoked. A read-only outcome (a Find, an Insert of a
// present key, a Delete of an absent key, a Dequeue or Pop on an empty
// structure) has no effect for recovery to preserve, so it may linearize
// at its re-execution instead: the structures return it straight from the
// gather phase — after helping any tagged node it read, exactly as before —
// with no BeginOp, no descriptor and no Publish, and their recovery
// functions re-execute it. Invoke skips its store when CP already reads 0
// (see Thread.Invoke), so a run of reads writes back nothing.
//
// An update calls BeginOp just before its first Publish. If a published
// attempt then fails to tag (Help backtracks) and the retry resolves
// read-only, the operation returns with the checkpoint naming the failed
// attempt. That is still sound: the attempt's tagging failed because an
// AffectSet entry no longer held its observed info value, info values
// never recur (every value names a fresh descriptor) and Help persisted
// the foreign value before backtracking, so a recovery Help of the
// attempt fails again, Recover reports ok = false, and the operation is
// re-invoked — the read-only case above.
//
// The paper's read-only optimization (Algorithm 1, red code: publish a
// descriptor with an early result and skip Help) stays available in
// internal/rlist under the Paper profile.
//
// # API tour
//
// An Engine is created per structure (New) and hands out one Thread per
// worker (Thread); SetProfile selects its profile. An updating operation
// calls Invoke, BeginOp, NewDesc, Publish and Help, in that order; after a
// crash, Thread.Recover locates the published descriptor and finishes or
// reports the operation. The pwb
// sites the engine registers (pwb-CP, pwb-RD, pwb-desc+new, pwb-info-tag,
// pwb-info-backtrack, pwb-info-cleanup, pwb-update-field, pwb-result) are
// the unit of the paper's cost methodology and of the crash-site sweep in
// internal/chaos/sweep.
package tracking
