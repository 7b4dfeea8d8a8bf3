package main

import (
	"bufio"
	"fmt"
	"os"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its own call into the layer. A span's id is its index
// in the round's span list; parent is the id of the span that caused it
// (-1 for the round). Op spans carry the op's ordinal in opID.
type span struct {
	name       uint8
	parent     int32
	opID       uint32
	start, end int64 // ns on the benchmark clock
}

// Span names. Op spans are named layer.call; the others are the harness
// intervals that cause them.
const (
	spRound uint8 = iota
	spClient
	spSegment // one resume of the crash schedule
	spCrash   // one crash/recover cycle
	spLadder  // one standalone ladder stage
	spCrashCapture
	spPoolRecover
	spKVRecover
	spKVRecoverParallel
	spKVRecoverOp
	spKVGet
	spKVPutFresh
	spKVPutOverwrite
	spKVDelete
	spListFind
	spListInsert
	spListDelete
	spHashFind
	spHashInsert
	spHashDelete
	spRMMAlloc
	spRMMFree
	spTrackingOp
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRound: "round", spClient: "client", spSegment: "segment", spCrash: "crash", spLadder: "ladder",
	spCrashCapture: "pmem.crash_capture", spPoolRecover: "pmem.pool_recover",
	spKVRecover: "kvstore.recover", spKVRecoverParallel: "recovery.parallel",
	spKVRecoverOp: "kvstore.recover_op",
	spKVGet:       "kvstore.get", spKVPutFresh: "kvstore.put_fresh",
	spKVPutOverwrite: "kvstore.put_overwrite", spKVDelete: "kvstore.delete",
	spListFind: "rlist.find", spListInsert: "rlist.insert", spListDelete: "rlist.delete",
	spHashFind: "rhash.find", spHashInsert: "rhash.insert", spHashDelete: "rhash.delete",
	spRMMAlloc: "rmm.alloc", spRMMFree: "rmm.free", spTrackingOp: "tracking.op",
}

// opSpanName names the span of request o on structure s. A Put is split by
// its response: a fresh key runs the three-stage protocol, an overwrite
// swaps a block and frees the old one.
func opSpanName(s structure, o op, res bool) uint8 {
	if s == onList {
		return spListFind + uint8(o.kind())
	}
	switch o.kind() {
	case opInsert:
		if res {
			return spKVPutFresh
		}
		return spKVPutOverwrite
	case opDelete:
		return spKVDelete
	default:
		return spKVGet
	}
}

// adopt appends to spans a span named name under parent and then children
// under it, numbering the children's ops; it returns the new span's id.
func adopt(spans *[]span, name uint8, parent int32, start, end int64, children []span) int32 {
	id := int32(len(*spans))
	*spans = append(*spans, span{name: name, parent: parent, start: start, end: end})
	for i, c := range children {
		c.parent, c.opID = id, uint32(i)
		*spans = append(*spans, c)
	}
	return id
}

// spanStats is the per-name summary of a span list.
type spanStats struct {
	n   [numSpanNames]int
	sum [numSpanNames]int64
}

func summarize(spans []span) (s spanStats) {
	for _, sp := range spans {
		s.n[sp.name]++
		s.sum[sp.name] += sp.end - sp.start
	}
	return s
}

// mean is the mean duration of name's spans less the cost of the clock
// reads that bracket each of them, or 0 when there are none.
func (s *spanStats) mean(name uint8, timerNs float64) float64 {
	if s.n[name] == 0 {
		return 0
	}
	m := float64(s.sum[name])/float64(s.n[name]) - timerNs
	if m < 0 {
		return 0
	}
	return m
}

// maxSpansWritten caps each stage in the span file: the per-layer numbers
// use every span in memory, the file is a sample for reading.
const maxSpansWritten = 200_000

// writeSpans appends one workload's spans to the file at path as JSON
// lines. Each stage (the in-situ round, then each ladder rung) numbers its
// spans from 0, so a parent resolves within its stage.
func writeSpans(path, workload string, stages [][]span) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for stage, spans := range stages {
		for id, sp := range spans {
			if id >= maxSpansWritten {
				break
			}
			fmt.Fprintf(w, `{"workload":%q,"stage":%d,"span":%d,"name":%q,"parent":%d,"op":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				workload, stage, id, spanNames[sp.name], sp.parent, sp.opID, sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
