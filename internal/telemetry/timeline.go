package telemetry

import (
	"encoding/json"
	"net/http"
	"runtime"

	"repro/internal/buildinfo"
	"repro/internal/causal"
	"repro/internal/journal"
)

// This file is the registry's timeline surface: /debug/timeline serves
// the attached event journal as an HLC-ordered history — the live
// counterpart of cmd/locktimeline's offline queries — plus the
// lockd_build_info identity gauge, so the scrape that shows a timeline
// anomaly also says exactly which build produced it.

// RegisterBuildInfo exports the lockd_build_info gauge (constant 1,
// identity in the labels) from this registry. Callers close the
// returned entry to unregister.
func (r *Registry) RegisterBuildInfo() *Entry {
	labels := []Label{
		{Name: "version", Value: buildinfo.Version},
		{Name: "revision", Value: buildinfo.Revision()},
		{Name: "goversion", Value: runtime.Version()},
	}
	return r.RegisterSource("buildinfo", "process", func() LockSnapshot {
		return LockSnapshot{
			Name: "buildinfo",
			Impl: "process",
			Extra: []ExtraPoint{{
				Name:  "lockd_build_info",
				Help:  "Build identity of this process; the value is always 1.",
				Gauge: true, Value: 1, Labels: labels,
			}},
		}
	})
}

// RegisterBuildInfo exports lockd_build_info from the default registry.
func RegisterBuildInfo() *Entry { return Default.RegisterBuildInfo() }

// timelineEntryJSON is the /debug/timeline JSON shape of one merged
// record.
type timelineEntryJSON struct {
	AtNs   int64  `json:"at_ns"`
	HLC    uint64 `json:"hlc,omitempty"`
	Kind   string `json:"kind"`
	Origin string `json:"origin"`
	Lock   string `json:"lock,omitempty"`
	Agent  string `json:"agent,omitempty"`
	Token  uint64 `json:"token,omitempty"`
	DurNs  int64  `json:"dur_ns,omitempty"`
	Trace  string `json:"trace,omitempty"`
}

// handleTimeline serves the attached journal as an HLC-ordered
// timeline, filtered by the parseQuery parameters with time bounds cut
// in HLC order; ?format=text|json (default text — the same line format
// cmd/locktimeline prints).
func (r *Registry) handleTimeline(w http.ResponseWriter, req *http.Request) {
	j := r.eventJournal()
	if j == nil {
		jsonError(w, http.StatusNotFound, "telemetry: no event journal attached")
		return
	}
	query, ok := parseQuery(w, req)
	if !ok {
		return
	}

	j.Flush()
	entries, _, err := journal.ReadDir(j.Dir())
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "telemetry: read journal: %v", err)
		return
	}
	merged := journal.FilterMerged(
		journal.Merge([]journal.ProcEntries{{Proc: "local", Entries: entries}}), query)

	if req.URL.Query().Get("format") == "json" {
		docs := make([]timelineEntryJSON, 0, len(merged))
		for _, e := range merged {
			doc := timelineEntryJSON{
				AtNs: e.AtNs, HLC: uint64(e.HLC),
				Kind: e.Kind.String(), Origin: e.Origin.String(),
				Lock: e.LockName, Agent: e.AgentName,
				Token: e.Token, DurNs: e.DurNs,
			}
			if e.Trace != 0 {
				doc.Trace = causal.TraceID(e.Trace).String()
			}
			docs = append(docs, doc)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct { //nolint:errcheck // client went away
			Records []timelineEntryJSON `json:"records"`
		}{docs})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	journal.WriteTimeline(w, merged) //nolint:errcheck // client went away
}
