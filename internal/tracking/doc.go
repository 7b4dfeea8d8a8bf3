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
// Detectability comes from two thread-private persistent words per thread:
// CP (a check-point flag) and RD (a pointer to the descriptor of the
// thread's current operation). They are persisted, with the descriptor and
// any freshly allocated nodes, *before* Help first runs, so after a crash
// the recovery function can locate the descriptor, finish the operation via
// Help, and read its response from the result field.
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
// read-only, the operation returns with CP = 1 and RD naming the failed
// attempt. That is still sound: the attempt's tagging failed because an
// AffectSet entry no longer held its observed info value, info values
// never recur (every value names a fresh descriptor) and Help persisted
// the foreign value before backtracking, so a recovery Help of the
// attempt fails again, Recover reports ok = false, and the operation is
// re-invoked — the read-only case above.
//
// The paper's read-only optimization (Algorithm 1, red code: publish a
// descriptor with an early result and skip Help) stays available as an
// ablation level of internal/rlist, which the paper-figure experiments
// select.
//
// # API tour
//
// An Engine is created per structure (New) and hands out one Thread per
// worker (Thread). An updating operation calls Invoke, BeginOp, NewDesc,
// Publish and Help, in that order; after a crash, Thread.Recover locates
// the published descriptor and finishes or reports the operation. The pwb
// sites the engine registers (pwb-CP, pwb-RD, pwb-desc+new, pwb-info-tag,
// pwb-info-backtrack, pwb-info-cleanup, pwb-update-field, pwb-result) are
// the unit of the paper's cost methodology and of the crash-site sweep in
// internal/chaos/sweep.
package tracking
