package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// SchemaVersion tags exported snapshots; ValidateSnapshotJSON rejects any
// other value, so downstream consumers can detect format drift.
const SchemaVersion = "repro-telemetry/1"

// Snapshot is a point-in-time merge of everything a Registry has recorded,
// in its JSON export form.
type Snapshot struct {
	// Schema is always SchemaVersion.
	Schema string `json:"schema"`
	// Sites lists per-pwb-code-line counters, highest executed-PWB count
	// first.
	Sites []SiteSnapshot `json:"sites"`
	// PWBs is the total executed write-backs across all sites and threads.
	PWBs uint64 `json:"pwbs"`
	// PSyncs is the total executed psyncs across all threads.
	PSyncs uint64 `json:"psyncs"`
	// PFences is the total executed pfences across all threads.
	PFences uint64 `json:"pfences"`
	// PSyncStallUnits is the total simulated latency charged to psyncs
	// (ModeFast spin units).
	PSyncStallUnits uint64 `json:"psync_stall_units"`
	// PSyncStallNs is the total measured wall-clock psync commit time
	// (ModeStrict).
	PSyncStallNs uint64 `json:"psync_stall_ns"`
	// Ops lists the per-operation-class latency histograms that recorded
	// at least one operation.
	Ops []HistogramSnapshot `json:"ops"`
	// Gauges lists named last-write-wins values published via SetGauge
	// (e.g. the rmm-* allocator family), sorted by name; omitted when no
	// gauge was ever set.
	Gauges []GaugeSnapshot `json:"gauges,omitempty"`
	// Events is the trace-ring content in sequence order (omitted when no
	// ring is configured).
	Events []EventSnapshot `json:"events,omitempty"`
	// EventsSeen is the total number of events ever appended to the ring;
	// EventsSeen - len(Events) were dropped by wraparound.
	EventsSeen uint64 `json:"events_seen"`
}

// SiteSnapshot is one pwb code line's merged counters.
type SiteSnapshot struct {
	// Site is the code line's registered label.
	Site string `json:"site"`
	// PWBs is the number of executed write-backs of this line.
	PWBs uint64 `json:"pwbs"`
	// PWBStallUnits is the simulated latency charged directly to this
	// line's write-backs (ModeFast).
	PWBStallUnits uint64 `json:"pwb_stall_units"`
	// PSyncStallUnits is this line's attributed share of psync stall, in
	// simulated units (ModeFast): psync cost divided over the sites whose
	// write-backs the sync completed.
	PSyncStallUnits uint64 `json:"psync_stall_units"`
	// PSyncStallNs is this line's attributed share of measured psync
	// commit time (ModeStrict).
	PSyncStallNs uint64 `json:"psync_stall_ns"`
}

// GaugeSnapshot is one named gauge's exported value.
type GaugeSnapshot struct {
	// Name is the gauge's subsystem-prefixed name.
	Name string `json:"name"`
	// Value is the last value set.
	Value uint64 `json:"value"`
}

// Totals is the cheap running aggregate for live progress reporting.
type Totals struct {
	// Ops is the number of operations recorded via RecordOp.
	Ops uint64
	// PWBs, PSyncs and PFences count executed persistence instructions.
	PWBs uint64
	// PSyncs counts executed psyncs.
	PSyncs uint64
	// PFences counts executed pfences.
	PFences uint64
	// StallUnits is the total simulated stall charged (pwb + psync).
	StallUnits uint64
	// Events is the number of trace events appended.
	Events uint64
}

// Totals sums the headline counters without building histograms or
// resolving the trace ring; cheap enough for a progress ticker.
func (r *Registry) Totals() Totals {
	var t Totals
	t.Events = r.poolEvents.Load()
	if r.ring != nil {
		t.Events = r.ring.seq.Load()
	}
	r.mu.Lock()
	for _, a := range r.retired {
		t.PWBs += a.pwbs
		t.StallUnits += a.pwbStallUnits + a.psyncStallUnits
	}
	r.mu.Unlock()
	tbl := r.shards.Load()
	if tbl == nil {
		return t
	}
	for _, sh := range *tbl {
		if sh == nil {
			continue
		}
		t.PSyncs += sh.psyncs.Load()
		t.PFences += sh.pfences.Load()
		t.StallUnits += sh.psyncStallUnits.Load()
		for o := Op(0); o < numOps; o++ {
			t.Ops += sh.ops[o].count.Load()
		}
		if sc := sh.sites.Load(); sc != nil {
			for i := range sc.pwbs {
				t.PWBs += sc.pwbs[i].Load()
				t.StallUnits += sc.pwbStallUnits[i].Load()
			}
		}
	}
	return t
}

// Snapshot merges every shard into an exportable snapshot. Safe to call
// while threads record; counters read mid-run are exact for completed
// calls.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Schema: SchemaVersion}

	var shards []*shard
	if tbl := r.shards.Load(); tbl != nil {
		shards = *tbl
	}

	// Per-site merge: retired (label-keyed, from previously attached
	// pools) plus the live index-keyed tables under the current labels.
	bySite := make(map[string]siteAcc)
	r.mu.Lock()
	for l, a := range r.retired {
		bySite[l] = a
	}
	r.mu.Unlock()
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		snap.PSyncs += sh.psyncs.Load()
		snap.PFences += sh.pfences.Load()
		snap.PSyncStallUnits += sh.psyncStallUnits.Load()
		snap.PSyncStallNs += sh.psyncStallNs.Load()
		sc := sh.sites.Load()
		if sc == nil {
			continue
		}
		for i := range sc.pwbs {
			a := siteAcc{
				pwbs:            sc.pwbs[i].Load(),
				pwbStallUnits:   sc.pwbStallUnits[i].Load(),
				psyncStallUnits: sc.psyncStallUnits[i].Load(),
				psyncStallNs:    sc.psyncStallNs[i].Load(),
			}
			if a.zero() {
				continue
			}
			t := bySite[r.siteLabel(i)]
			t.add(a)
			bySite[r.siteLabel(i)] = t
		}
	}
	for label, a := range bySite {
		snap.PWBs += a.pwbs
		snap.Sites = append(snap.Sites, SiteSnapshot{
			Site:            label,
			PWBs:            a.pwbs,
			PWBStallUnits:   a.pwbStallUnits,
			PSyncStallUnits: a.psyncStallUnits,
			PSyncStallNs:    a.psyncStallNs,
		})
	}
	sort.Slice(snap.Sites, func(i, j int) bool {
		if snap.Sites[i].PWBs != snap.Sites[j].PWBs {
			return snap.Sites[i].PWBs > snap.Sites[j].PWBs
		}
		return snap.Sites[i].Site < snap.Sites[j].Site
	})

	// Latency histograms.
	for o := Op(0); o < numOps; o++ {
		perOp := make([]*histShard, 0, len(shards))
		for _, sh := range shards {
			if sh != nil {
				perOp = append(perOp, &sh.ops[o])
			}
		}
		if h := mergeHistograms(o, perOp); h.Count > 0 {
			snap.Ops = append(snap.Ops, h)
		}
	}

	// Gauges, sorted by name for deterministic export.
	r.mu.Lock()
	for name, v := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: name, Value: v})
	}
	r.mu.Unlock()
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })

	// Trace ring.
	if r.ring != nil {
		raw, seen := r.ring.collect()
		snap.EventsSeen = seen
		snap.Events = make([]EventSnapshot, len(raw))
		for i, e := range raw {
			es := EventSnapshot{Seq: e.seq, Kind: e.kind.String(), TID: int(e.tid), Arg: e.arg}
			if e.site >= 0 {
				es.Site = r.siteLabel(int(e.site))
			}
			snap.Events[i] = es
		}
	} else {
		snap.EventsSeen = r.poolEvents.Load()
	}
	return snap
}

// MarshalIndentJSON renders the snapshot as indented JSON.
func (s Snapshot) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// FormatTrace renders the last n trace events (all of them when n <= 0)
// as human-readable lines for crash postmortems.
func (s Snapshot) FormatTrace(n int) []string {
	events := s.Events
	if n > 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	out := make([]string, len(events))
	for i, e := range events {
		line := fmt.Sprintf("#%d %s tid=%d", e.Seq, e.Kind, e.TID)
		if e.Site != "" {
			line += " site=" + e.Site
		}
		if e.Arg != 0 {
			line += fmt.Sprintf(" arg=%d", e.Arg)
		}
		out[i] = line
	}
	return out
}

// ValidateSnapshotJSON checks that data is a well-formed telemetry
// snapshot: current schema tag, no unknown fields, internally consistent
// histograms (ascending non-empty buckets summing to the count, ordered
// quantiles), monotone trace sequence numbers, and uniquely named,
// sorted gauges. This is
// the contract the telemetry-smoke CI gate enforces on benchrunner
// output.
func ValidateSnapshotJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("telemetry: decode snapshot: %w", err)
	}
	if s.Schema != SchemaVersion {
		return fmt.Errorf("telemetry: schema %q, want %q", s.Schema, SchemaVersion)
	}
	var sitePWBs uint64
	for _, site := range s.Sites {
		if site.Site == "" {
			return fmt.Errorf("telemetry: site entry with empty label")
		}
		sitePWBs += site.PWBs
	}
	if sitePWBs != s.PWBs {
		return fmt.Errorf("telemetry: site pwbs sum %d != total %d", sitePWBs, s.PWBs)
	}
	for _, h := range s.Ops {
		if h.Count == 0 {
			return fmt.Errorf("telemetry: op %q histogram exported with zero count", h.Op)
		}
		var sum, prev uint64
		first := true
		for _, b := range h.Buckets {
			if b.Count == 0 {
				return fmt.Errorf("telemetry: op %q has an empty exported bucket", h.Op)
			}
			if b.MinNs > b.MaxNs {
				return fmt.Errorf("telemetry: op %q bucket bounds inverted (%d > %d)",
					h.Op, b.MinNs, b.MaxNs)
			}
			if !first && b.MinNs <= prev {
				return fmt.Errorf("telemetry: op %q buckets not ascending and disjoint", h.Op)
			}
			first, prev = false, b.MaxNs
			sum += b.Count
		}
		if sum != h.Count {
			return fmt.Errorf("telemetry: op %q bucket sum %d != count %d", h.Op, sum, h.Count)
		}
		if h.P50Ns > h.P90Ns || h.P90Ns > h.P99Ns || h.P99Ns > h.P99_9Ns {
			return fmt.Errorf("telemetry: op %q quantiles not ordered (p50=%d p90=%d p99=%d p99.9=%d)",
				h.Op, h.P50Ns, h.P90Ns, h.P99Ns, h.P99_9Ns)
		}
	}
	for i, g := range s.Gauges {
		if g.Name == "" {
			return fmt.Errorf("telemetry: gauge entry with empty name")
		}
		if i > 0 && g.Name <= s.Gauges[i-1].Name {
			return fmt.Errorf("telemetry: gauges not sorted by unique name at index %d", i)
		}
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].Seq <= s.Events[i-1].Seq {
			return fmt.Errorf("telemetry: trace sequence not increasing at index %d", i)
		}
	}
	if uint64(len(s.Events)) > s.EventsSeen {
		return fmt.Errorf("telemetry: %d events exported but only %d seen", len(s.Events), s.EventsSeen)
	}
	return nil
}
