package main

import (
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/rhash"
	"repro/internal/rlist"
)

// client is one goroutine's handle on the structure under test. Every call
// crosses the layer's public API and nothing else: this is the boundary
// the benchmark times from outside.
type client interface {
	// invoke is the system-side invocation step a crash harness performs
	// before do, so a crash before it re-invokes and one after it recovers.
	invoke()
	// do runs the request and returns its response: found / was absent /
	// was present. An error is a failed operation.
	do(o op) (bool, error)
	// recoverOp is the request's recovery function after a crash inside do.
	recoverOp(o op) (bool, error)
	// flush hands buffered resources back before the client idles.
	flush()
}

// target is the structure under test.
type target interface {
	client(ctx *pmem.ThreadCtx) client
	keys(ctx *pmem.ThreadCtx) []int64
	check(ctx *pmem.ThreadCtx) error
}

// valueOf is the value stored under key; any fixed function works, and a
// fixed one lets every Get check what it read.
func valueOf(key int64) uint64 { return uint64(key)*0x9e3779b97f4a7c15 | 1 }

type kvTarget struct{ s *kvstore.Store }

func (t kvTarget) client(ctx *pmem.ThreadCtx) client { return kvClient{t.s.Handle(ctx)} }
func (t kvTarget) keys(ctx *pmem.ThreadCtx) []int64  { return t.s.Keys(ctx) }
func (t kvTarget) check(ctx *pmem.ThreadCtx) error   { return t.s.CheckInvariants(ctx, true) }

type kvClient struct{ h *kvstore.Handle }

func (c kvClient) invoke() { c.h.Invoke() }
func (c kvClient) flush()  { c.h.Flush() }

func checkValue(key int64, v uint64, ok bool) (bool, error) {
	if ok && v != valueOf(key) {
		return ok, fmt.Errorf("get %d returned value %#x, want %#x", key, v, valueOf(key))
	}
	return ok, nil
}

func (c kvClient) do(o op) (bool, error) {
	switch o.kind() {
	case opInsert:
		return c.h.Put(o.key(), valueOf(o.key()), kvstore.NoExpiry)
	case opDelete:
		return c.h.Delete(o.key())
	default:
		v, ok := c.h.Get(o.key())
		return checkValue(o.key(), v, ok)
	}
}

func (c kvClient) recoverOp(o op) (bool, error) {
	switch o.kind() {
	case opInsert:
		return c.h.RecoverPut(o.key(), valueOf(o.key()), kvstore.NoExpiry)
	case opDelete:
		return c.h.RecoverDelete(o.key())
	default:
		v, ok := c.h.RecoverGet(o.key())
		return checkValue(o.key(), v, ok)
	}
}

// setHandle is what the list and the hash map handles share.
type setHandle interface {
	Invoke()
	Find(key int64) bool
	Insert(key int64) bool
	Delete(key int64) bool
	RecoverFind(key int64) bool
	RecoverInsert(key int64) bool
	RecoverDelete(key int64) bool
}

type setClient struct{ h setHandle }

func (c setClient) invoke() { c.h.Invoke() }
func (c setClient) flush()  {}

func (c setClient) do(o op) (bool, error) {
	switch o.kind() {
	case opInsert:
		return c.h.Insert(o.key()), nil
	case opDelete:
		return c.h.Delete(o.key()), nil
	default:
		return c.h.Find(o.key()), nil
	}
}

func (c setClient) recoverOp(o op) (bool, error) {
	switch o.kind() {
	case opInsert:
		return c.h.RecoverInsert(o.key()), nil
	case opDelete:
		return c.h.RecoverDelete(o.key()), nil
	default:
		return c.h.RecoverFind(o.key()), nil
	}
}

type listTarget struct{ l *rlist.List }

func (t listTarget) client(ctx *pmem.ThreadCtx) client { return setClient{t.l.Handle(ctx)} }
func (t listTarget) keys(ctx *pmem.ThreadCtx) []int64  { return t.l.Keys(ctx) }
func (t listTarget) check(ctx *pmem.ThreadCtx) error   { return t.l.CheckInvariants(ctx, true) }

type hashTarget struct{ m *rhash.Map }

func (t hashTarget) client(ctx *pmem.ThreadCtx) client { return setClient{t.m.Handle(ctx)} }
func (t hashTarget) keys(ctx *pmem.ThreadCtx) []int64  { return t.m.Keys(ctx) }
func (t hashTarget) check(ctx *pmem.ThreadCtx) error   { return t.m.CheckInvariants(ctx, true) }

// rootSlot is where every workload's structure commits.
const rootSlot = 0

// newPool builds the pool exactly as a caller of the library would: the
// shipped default configuration, no Pool.Set* knob.
func newPool(mode pmem.Mode, words int) *pmem.Pool {
	return pmem.New(pmem.Config{Mode: mode, CapacityWords: words, MaxThreads: maxThreads})
}

// build constructs w's structure in pool.
func build(w workload, pool *pmem.Pool) (target, error) {
	if w.structure == onList {
		return listTarget{rlist.New(pool, maxThreads, rootSlot)}, nil
	}
	cfg := w.kv
	cfg.RootSlot = rootSlot
	s, err := kvstore.New(pool, cfg)
	if err != nil {
		return nil, err
	}
	return kvTarget{s}, nil
}

// reattach is what a restart runs before clients resume: whole-store
// recovery for the kvstore, header attach for the list.
func reattach(w workload, pool *pmem.Pool) (target, error) {
	if w.structure == onList {
		l, err := rlist.Attach(pool, rootSlot)
		if err != nil {
			return nil, err
		}
		return listTarget{l}, nil
	}
	s, err := kvstore.Recover(pool, rootSlot)
	if err != nil {
		return nil, err
	}
	return kvTarget{s}, nil
}
