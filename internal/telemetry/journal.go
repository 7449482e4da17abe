package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"

	"repro/internal/causal"
	"repro/internal/journal"
)

// This file is the registry's event-journal surface: an attached
// journal.Journal becomes queryable over HTTP. /debug/journal serves
// filtered records as JSON (time range, lock, agent, kind), and the raw
// segment files are listable and downloadable so an operator can pull a
// crashed process's flight journal off a live telemetry port and replay
// it offline with cmd/locktimeline.

// SetJournal attaches the event journal served by /debug/journal. A nil
// j detaches it (the endpoints then 404).
func (r *Registry) SetJournal(j *journal.Journal) {
	r.mu.Lock()
	r.journal = j
	r.mu.Unlock()
}

// SetJournal attaches the default registry's event journal.
func SetJournal(j *journal.Journal) { Default.SetJournal(j) }

func (r *Registry) eventJournal() *journal.Journal {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journal
}

// jsonError writes an application/json error object. The debug
// endpoints use it so scripted clients can parse failures without
// sniffing text bodies.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // client went away
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// journalEntryJSON is the /debug/journal shape of one record.
type journalEntryJSON struct {
	AtNs   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Origin string `json:"origin"`
	Lock   string `json:"lock,omitempty"`
	Agent  string `json:"agent,omitempty"`
	Seq    uint64 `json:"seq"`
	DurNs  int64  `json:"dur_ns,omitempty"`
	Token  uint64 `json:"token,omitempty"`
	Tag    uint64 `json:"tag,omitempty"`
	Trace  string `json:"trace,omitempty"`
}

// parseQuery reads the ?lock=, ?agent=, ?kind=, ?from=, ?to= (ns epoch
// or RFC3339) and ?limit=N parameters that /debug/journal and
// /debug/timeline share. On a malformed one it writes the 400 JSON
// error and returns false.
func parseQuery(w http.ResponseWriter, req *http.Request) (journal.Query, bool) {
	v := req.URL.Query()
	q, err := journal.ParseQuery(v.Get)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "telemetry: %v", err)
		return q, false
	}
	if s := v.Get("limit"); s != "" {
		if q.Limit, err = strconv.Atoi(s); err != nil || q.Limit <= 0 {
			jsonError(w, http.StatusBadRequest, "telemetry: limit must be a positive integer")
			return q, false
		}
	}
	return q, true
}

// handleJournal serves filtered journal records as JSON, oldest first
// (see parseQuery; ?limit keeps the most recent N). Its time bounds cut
// on raw wall instants.
func (r *Registry) handleJournal(w http.ResponseWriter, req *http.Request) {
	j := r.eventJournal()
	if j == nil {
		jsonError(w, http.StatusNotFound, "telemetry: no event journal attached")
		return
	}
	q, ok := parseQuery(w, req)
	if !ok {
		return
	}

	j.Flush() // make everything appended so far readable
	entries, _, err := journal.ReadDir(j.Dir())
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "telemetry: read journal: %v", err)
		return
	}
	docs := make([]journalEntryJSON, 0, len(entries))
	for _, e := range entries {
		if e.AtNs < q.FromNs || q.ToNs != 0 && e.AtNs > q.ToNs || !q.Matches(e) {
			continue
		}
		doc := journalEntryJSON{
			AtNs: e.AtNs, Kind: e.Kind.String(), Origin: e.Origin.String(),
			Lock: e.LockName, Agent: e.AgentName,
			Seq: e.Seq, DurNs: e.DurNs, Token: e.Token, Tag: e.Tag,
		}
		if e.Trace != 0 {
			doc.Trace = causal.TraceID(e.Trace).String()
		}
		docs = append(docs, doc)
	}
	if q.Limit > 0 && len(docs) > q.Limit {
		docs = docs[len(docs)-q.Limit:]
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // client went away
		Records []journalEntryJSON `json:"records"`
	}{docs})
}

// segmentJSON is the /debug/journal/segments shape of one segment file.
type segmentJSON struct {
	Name      string `json:"name"`
	Index     uint64 `json:"index"`
	Size      int64  `json:"size"`
	Frames    int    `json:"frames"`
	CreatedNs int64  `json:"created_ns"`
	Torn      bool   `json:"torn,omitempty"`
	Corrupt   bool   `json:"corrupt,omitempty"`
}

// handleJournalSegments lists the on-disk segment files.
func (r *Registry) handleJournalSegments(w http.ResponseWriter, req *http.Request) {
	j := r.eventJournal()
	if j == nil {
		jsonError(w, http.StatusNotFound, "telemetry: no event journal attached")
		return
	}
	j.Flush()
	infos, err := journal.ListSegments(j.Dir())
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "telemetry: list segments: %v", err)
		return
	}
	docs := make([]segmentJSON, 0, len(infos))
	for _, si := range infos {
		// Scan the segment so the listing reports frame counts and
		// integrity flags, not just file sizes.
		if _, full, err := journal.ReadSegment(si.Path); err == nil {
			si = full
		}
		docs = append(docs, segmentJSON{
			Name: si.Name, Index: si.Index, Size: si.Size, Frames: si.Frames,
			CreatedNs: si.CreatedNs, Torn: si.Torn, Corrupt: si.Corrupt,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // client went away
		Dir      string        `json:"dir"`
		Segments []segmentJSON `json:"segments"`
	}{j.Dir(), docs})
}

// handleJournalSegment downloads one raw segment file by name.
func (r *Registry) handleJournalSegment(w http.ResponseWriter, req *http.Request) {
	j := r.eventJournal()
	if j == nil {
		jsonError(w, http.StatusNotFound, "telemetry: no event journal attached")
		return
	}
	name := req.URL.Query().Get("name")
	// Reject anything that is not a bare segment filename: the journal
	// directory may sit next to material this port must not serve.
	if name == "" || name != filepath.Base(name) || filepath.Ext(name) != ".seg" {
		jsonError(w, http.StatusBadRequest, "telemetry: name must be a bare journal segment filename")
		return
	}
	j.Flush()
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, req, filepath.Join(j.Dir(), name))
}
