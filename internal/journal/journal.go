package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hlc"
)

// Config sizes a Journal. The zero value of every field selects a
// sensible default; only Dir is required.
type Config struct {
	// Dir is the segment directory, created if absent.
	Dir string
	// SegmentBytes rotates the active segment once it reaches this many
	// bytes. Default 1 MiB.
	SegmentBytes int64
	// MaxSegments bounds how many segment files retention keeps
	// (including the active one). Default 8; negative means unlimited.
	MaxSegments int
	// MaxTotalBytes bounds the directory's total size; oldest segments
	// go first. 0 means unlimited.
	MaxTotalBytes int64
	// MaxAge prunes segments whose last write is older than this at
	// rotation time. 0 means unlimited.
	MaxAge time.Duration
	// Shards is the number of producer rings (rounded up to a power of
	// two). Records shard by lock id, so per-lock order is total.
	// Default 4.
	Shards int
	// ShardCap is each ring's capacity in records (rounded up to a
	// power of two, minimum 64). A full ring drops — producers never
	// block. Default 1024.
	ShardCap int
	// FlushEvery is the writer's drain interval. Default 100ms.
	FlushEvery time.Duration
	// Sync fsyncs the active segment after every drain. Off by default:
	// the journal is a flight recorder, not a commit log.
	Sync bool
	// Logf, when set, receives writer-side errors (IO failures). The
	// journal never propagates them to producers.
	Logf func(format string, args ...any)
	// Clock stamps the HLC field of every appended record that does not
	// already carry one (sim records excepted — they live in simulated
	// time). Default hlc.Default, the process-wide clock; tests that
	// model several skewed processes in one address space supply their
	// own.
	Clock *hlc.Clock
	// DisableHLC turns stamping off for journals whose producers supply
	// synthetic wall instants (fixtures, replayed histories): records
	// keep HLC 0 and merge falls back to their wall clocks.
	DisableHLC bool
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
	if c.MaxSegments == 0 {
		c.MaxSegments = 8
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.ShardCap <= 0 {
		c.ShardCap = 1024
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 100 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = hlc.Default
	}
	return c
}

// Stats is a point-in-time snapshot of journal throughput.
type Stats struct {
	Appended     uint64 `json:"appended"`      // records accepted into rings
	Dropped      uint64 `json:"dropped"`       // records lost to full rings
	Flushed      uint64 `json:"flushed"`       // records written to segments
	Rotations    uint64 `json:"rotations"`     // segments completed
	SegmentIndex uint64 `json:"segment_index"` // index of the active segment
	IOErrors     uint64 `json:"io_errors"`
	LastErr      string `json:"last_err,omitempty"`
}

// Journal is the live, writable side. Open one per process; it is safe
// for concurrent producers. The read side (ReadDir, Merge, Verify)
// operates on the segment files alone and needs no Journal.
type Journal struct {
	cfg       Config
	shards    []*shard
	shardMask uint32

	mu         sync.RWMutex // intern tables
	lockIDs    map[string]uint32
	agentIDs   map[string]uint32
	lockNames  []string // index id-1
	agentNames []string

	dropped atomic.Uint64 // drops the writer has charged (see Stats)
	flushed atomic.Uint64
	rotated atomic.Uint64
	ioErrs  atomic.Uint64
	lastErr atomic.Value // string

	flushCh chan chan struct{}
	done    chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup

	// Writer-goroutine state.
	f             *os.File
	fsize         int64
	segIndex      uint64
	emittedLocks  map[uint32]bool
	emittedAgents map[uint32]bool
	buf           [FrameSize]byte
}

// Open creates (or reopens) a journal directory and starts the writer.
// Reopening after a crash resumes at the next free segment index; torn
// segments on disk are left alone for the reader to truncate.
func Open(cfg Config) (*Journal, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("journal: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %v", err)
	}
	nshards := 1
	for nshards < cfg.Shards {
		nshards <<= 1
	}
	j := &Journal{
		cfg:       cfg,
		shards:    make([]*shard, nshards),
		shardMask: uint32(nshards - 1),
		lockIDs:   make(map[string]uint32),
		agentIDs:  make(map[string]uint32),
		flushCh:   make(chan chan struct{}, 1),
		done:      make(chan struct{}),
	}
	for i := range j.shards {
		j.shards[i] = newShard(cfg.ShardCap)
	}
	// Resume numbering after whatever a previous incarnation left.
	infos, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, si := range infos {
		if si.Index >= j.segIndex {
			j.segIndex = si.Index + 1
		}
	}
	j.wg.Add(1)
	go j.run()
	return j, nil
}

// Dir returns the segment directory.
func (j *Journal) Dir() string { return j.cfg.Dir }

// InternLock maps a lock name to its stable id, assigning one on first
// use. Safe for concurrent use; nil-receiver safe (returns 0).
func (j *Journal) InternLock(name string) uint32 {
	if j == nil {
		return 0
	}
	return intern(&j.mu, j.lockIDs, &j.lockNames, name)
}

// InternAgent maps an agent/client name to its stable id.
func (j *Journal) InternAgent(name string) uint32 {
	if j == nil {
		return 0
	}
	return intern(&j.mu, j.agentIDs, &j.agentNames, name)
}

func intern(mu *sync.RWMutex, ids map[string]uint32, names *[]string, name string) uint32 {
	name = clipName(name)
	mu.RLock()
	id, ok := ids[name]
	mu.RUnlock()
	if ok {
		return id
	}
	mu.Lock()
	defer mu.Unlock()
	if id, ok = ids[name]; ok {
		return id
	}
	*names = append(*names, name)
	id = uint32(len(*names))
	ids[name] = id
	return id
}

// lockName resolves an interned lock id (writer side).
func (j *Journal) lockName(id uint32) string {
	j.mu.RLock()
	defer j.mu.RUnlock()
	if id == 0 || int(id) > len(j.lockNames) {
		return ""
	}
	return j.lockNames[id-1]
}

func (j *Journal) agentName(id uint32) string {
	j.mu.RLock()
	defer j.mu.RUnlock()
	if id == 0 || int(id) > len(j.agentNames) {
		return ""
	}
	return j.agentNames[id-1]
}

// Append enqueues one record. Lock-free, allocation-free, never
// blocks: a full shard drops the record and counts it. Seq is assigned
// here; the caller's value is ignored. Nil-receiver safe.
//
// Accounting stays off this path: accepted records are counted by the
// shard's reservation cursor and drops by its per-shard counter, so the
// producer pays no journal-global atomics (Stats aggregates instead).
func (j *Journal) Append(rec Record) {
	j.append(&rec)
}

// append is the pointer-taking core of Append, so package-internal
// producers (the native sink) skip one 64-byte record copy per event.
func (j *Journal) append(rec *Record) {
	if j == nil || j.closed.Load() {
		return
	}
	// Stamp on the producer's goroutine, not the writer's: the handler
	// that caused this event has already merged the timestamps of the
	// messages it received into the clock, so the stamp is causally
	// after them.
	if rec.HLC == 0 && rec.Origin != OriginSim && !j.cfg.DisableHLC {
		rec.HLC = j.cfg.Clock.Now()
	}
	j.shards[rec.Lock&j.shardMask].push(rec)
}

// Flush drains all rings to disk and returns when the write completed.
// Nil-receiver safe.
func (j *Journal) Flush() {
	if j == nil || j.closed.Load() {
		return
	}
	ack := make(chan struct{})
	select {
	case j.flushCh <- ack:
		select {
		case <-ack:
		case <-j.done:
		}
	case <-j.done:
	}
}

// Stats snapshots counters. Nil-receiver safe.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	// Appended is the sum of the shards' reservation cursors; Dropped is
	// the drops the writer has already charged plus each shard's
	// not-yet-taken residue. Both exact without producer-path atomics.
	var appended, residue uint64
	for _, sh := range j.shards {
		appended += sh.enq.Load()
		residue += sh.dropped.Load()
	}
	s := Stats{
		Appended:     appended,
		Dropped:      j.dropped.Load() + residue,
		Flushed:      j.flushed.Load(),
		Rotations:    j.rotated.Load(),
		SegmentIndex: atomic.LoadUint64(&j.segIndex),
		IOErrors:     j.ioErrs.Load(),
	}
	if e, ok := j.lastErr.Load().(string); ok {
		s.LastErr = e
	}
	return s
}

// Close drains, closes the active segment, and stops the writer.
// Subsequent Appends are dropped silently. Nil-receiver safe.
func (j *Journal) Close() error {
	if j == nil || !j.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(j.done)
	j.wg.Wait()
	return nil
}

// run is the writer goroutine: drain on a ticker, on demand, and once
// more on shutdown.
func (j *Journal) run() {
	defer j.wg.Done()
	tick := time.NewTicker(j.cfg.FlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			j.drain()
		case ack := <-j.flushCh:
			j.drain()
			j.syncFile()
			close(ack)
		case <-j.done:
			j.drain()
			j.closeFile()
			return
		}
	}
}

// drain empties every shard into the active segment, emitting a
// KindDrops marker wherever a ring overflowed since the last drain: in
// front of the first record pushed after the loss, so a reader never
// meets a record that followed a gap before learning of the gap.
func (j *Journal) drain() {
	var rec Record
	for _, sh := range j.shards {
		for sh.pop(&rec) {
			if sh.gapBefore(rec.Seq) {
				j.writeDrops(sh)
			}
			j.writeEvent(&rec)
		}
		j.writeDrops(sh)
	}
	if j.cfg.Sync {
		j.syncFile()
	}
}

// writeDrops writes a KindDrops marker for the records sh lost since the
// last one, if any.
func (j *Journal) writeDrops(sh *shard) {
	n := sh.takeDropped()
	if n == 0 {
		return
	}
	j.dropped.Add(n) // charge the cumulative counter off the hot path
	j.writeEvent(&Record{
		Kind:  KindDrops,
		AtNs:  time.Now().UnixNano(),
		HLC:   j.cfg.Clock.Now(),
		DurNs: int64(n),
	})
}

// writeEvent appends one event frame, interleaving name frames for ids
// the current segment has not defined yet, and rotates on overflow.
// Writer goroutine only. IO errors are counted, logged, and swallowed.
func (j *Journal) writeEvent(rec *Record) {
	if j.f == nil {
		if err := j.openSegment(); err != nil {
			j.ioFail(err)
			return
		}
	}
	if rec.Lock != 0 && !j.emittedLocks[rec.Lock] {
		encodeName(j.buf[:], frameLockName, rec.Lock, j.lockName(rec.Lock))
		if !j.writeFrame() {
			return
		}
		j.emittedLocks[rec.Lock] = true
	}
	if rec.Agent != 0 && !j.emittedAgents[rec.Agent] {
		encodeName(j.buf[:], frameAgentName, rec.Agent, j.agentName(rec.Agent))
		if !j.writeFrame() {
			return
		}
		j.emittedAgents[rec.Agent] = true
	}
	encodeEvent(j.buf[:], rec)
	if j.writeFrame() {
		j.flushed.Add(1)
	}
	if j.fsize >= j.cfg.SegmentBytes {
		j.rotate()
	}
}

func (j *Journal) writeFrame() bool {
	if _, err := j.f.Write(j.buf[:]); err != nil {
		j.ioFail(err)
		j.closeFile()
		return false
	}
	j.fsize += FrameSize
	return true
}

func (j *Journal) openSegment() error {
	path := filepath.Join(j.cfg.Dir, segmentName(j.segIndex))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	encodeSegHeader(hdr[:], j.segIndex, time.Now().UnixNano())
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.fsize = segHeaderSize
	j.emittedLocks = make(map[uint32]bool)
	j.emittedAgents = make(map[uint32]bool)
	return nil
}

func (j *Journal) rotate() {
	j.closeFile()
	atomic.AddUint64(&j.segIndex, 1)
	j.rotated.Add(1)
	j.applyRetention()
}

func (j *Journal) closeFile() {
	if j.f == nil {
		return
	}
	if j.cfg.Sync {
		j.f.Sync()
	}
	j.f.Close()
	j.f = nil
}

func (j *Journal) syncFile() {
	if j.cfg.Sync && j.f != nil {
		if err := j.f.Sync(); err != nil {
			j.ioFail(err)
		}
	}
}

// applyRetention prunes closed segments by count, total bytes, and
// age. Runs at rotation, so bounds hold up to one active segment.
func (j *Journal) applyRetention() {
	infos, err := listSegments(j.cfg.Dir)
	if err != nil {
		j.ioFail(err)
		return
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].Index < infos[b].Index })
	var total int64
	for _, si := range infos {
		total += si.Size
	}
	cutoff := time.Time{}
	if j.cfg.MaxAge > 0 {
		cutoff = time.Now().Add(-j.cfg.MaxAge)
	}
	// Keep room for the segment about to open: count bound is
	// MaxSegments-1 closed files.
	for i, si := range infos {
		left := len(infos) - i
		tooMany := j.cfg.MaxSegments > 0 && left > j.cfg.MaxSegments-1
		tooBig := j.cfg.MaxTotalBytes > 0 && total > j.cfg.MaxTotalBytes
		tooOld := !cutoff.IsZero() && si.ModTime.Before(cutoff)
		if !tooMany && !tooBig && !tooOld {
			break
		}
		if err := os.Remove(si.Path); err != nil {
			j.ioFail(err)
			break
		}
		total -= si.Size
	}
}

func (j *Journal) ioFail(err error) {
	j.ioErrs.Add(1)
	j.lastErr.Store(err.Error())
	if j.cfg.Logf != nil {
		j.cfg.Logf("journal: %v", err)
	}
}

// segmentName formats the on-disk name for a segment index.
func segmentName(index uint64) string {
	return fmt.Sprintf("journal-%08d.seg", index)
}
