package replica

import (
	"sort"
	"strings"
	"time"

	"repro/internal/hlc"
	"repro/internal/journal"
	"repro/internal/lockd"
)

// The shadow is a replica's replayed view of the leader's replicated
// state: live sessions, per-lock token floors and holders, and the last
// applied lock configuration. It is pure data — applying the same log
// always rebuilds the same shadow. Each node keeps one as its snapshot
// base, and at promotion the base plus the log after it becomes the new
// leader's serving state via lockd.ReplState. A live session holds a
// lock with a token exactly when the lock's holder is that session
// with that token, which is what lets render rebuild the held sets from
// the holders.

// appendMutation appends a mutation to dst as one replication-log
// entry's payload: a self-contained run of journal record frames
// stamped at atNs. The journal's framing is reused deliberately — a log
// entry IS a journal record in flight, CRC and all.
func appendMutation(dst []byte, m lockd.Mutation, atNs int64) []byte {
	rec := journal.Record{
		Kind:   m.Kind,
		Origin: journal.OriginLockd,
		AtNs:   atNs,
		HLC:    hlc.Time(m.HLC),
		DurNs:  m.DurNs,
		Token:  m.Token,
		Tag:    m.Session,
		Trace:  m.Trace,
	}
	agent := m.Agent
	if m.Kind == journal.KindReconfig {
		// A reconfig carries two strings the frame format has no slots
		// for; the agent-name frame carries "policy,sched" instead (the
		// shadow does not need the reconfiguring agent's name).
		agent = m.Policy + "," + m.Sched
	}
	return journal.AppendRecordFrames(dst, rec, m.Lock, agent)
}

// decodeMutation inverts appendMutation.
func decodeMutation(frames []byte) (lockd.Mutation, error) {
	e, err := journal.DecodeRecordFrames(frames)
	if err != nil {
		return lockd.Mutation{}, err
	}
	m := lockd.Mutation{
		Kind:    e.Record.Kind,
		Lock:    e.LockName,
		Agent:   e.AgentName,
		Session: e.Record.Tag,
		Token:   e.Record.Token,
		Trace:   e.Record.Trace,
		DurNs:   e.Record.DurNs,
		HLC:     uint64(e.Record.HLC),
	}
	if m.Kind == journal.KindReconfig {
		pol, sched, _ := strings.Cut(e.AgentName, ",")
		m.Policy, m.Sched, m.Agent = pol, sched, ""
	}
	return m, nil
}

type shadowSession struct {
	client string
	lease  time.Duration
	held   map[string]uint64 // lock name -> token
}

type shadowLock struct {
	fence         uint64
	holderSession uint64
	holderToken   uint64
	holder        string
	policy, sched string
}

type shadow struct {
	lastSession uint64
	sessions    map[uint64]*shadowSession
	locks       map[string]*shadowLock
}

func newShadow() *shadow {
	return &shadow{
		sessions: make(map[uint64]*shadowSession),
		locks:    make(map[string]*shadowLock),
	}
}

func (sh *shadow) lock(name string) *shadowLock {
	lk := sh.locks[name]
	if lk == nil {
		lk = &shadowLock{}
		sh.locks[name] = lk
	}
	return lk
}

// apply folds one mutation into the shadow. Idempotent for the
// re-deliveries log shipping can produce (a re-applied grant or release
// leaves the same state).
func (sh *shadow) apply(m lockd.Mutation) {
	switch m.Kind {
	case journal.KindSessionOpen:
		if m.Session > sh.lastSession {
			sh.lastSession = m.Session
		}
		if _, ok := sh.sessions[m.Session]; !ok {
			sh.sessions[m.Session] = &shadowSession{
				client: m.Agent,
				lease:  time.Duration(m.DurNs),
				held:   make(map[string]uint64),
			}
		}
	case journal.KindSessionEnd:
		delete(sh.sessions, m.Session)
	case journal.KindAcquire:
		lk := sh.lock(m.Lock)
		if lk.fence < m.Token {
			lk.fence = m.Token
		}
		// A grant supersedes any tenure whose end the log has not shown.
		sh.endTenure(m.Lock, lk)
		lk.holderSession, lk.holderToken, lk.holder = m.Session, m.Token, m.Agent
		if s := sh.sessions[m.Session]; s != nil {
			s.held[m.Lock] = m.Token
		}
	case journal.KindRelease, journal.KindOwnerDead:
		lk := sh.lock(m.Lock)
		if lk.fence < m.Token {
			// A release can outrank every grant: the leader burns tokens
			// this way to neutralize grants that missed quorum.
			lk.fence = m.Token
		}
		// Only the tenure the token names ends: a stale duplicate
		// release leaves a later grant to the same session in place.
		if m.Token != 0 && lk.holderToken == m.Token {
			sh.endTenure(m.Lock, lk)
		}
	case journal.KindReconfig:
		lk := sh.lock(m.Lock)
		if m.Policy != "" {
			lk.policy = m.Policy
		}
		if m.Sched != "" {
			lk.sched = m.Sched
		}
	}
}

// endTenure frees the lock: its holder session, if live, no longer
// holds it.
func (sh *shadow) endTenure(name string, lk *shadowLock) {
	if s := sh.sessions[lk.holderSession]; s != nil && s.held[name] == lk.holderToken {
		delete(s.held, name)
	}
	lk.holderSession, lk.holderToken, lk.holder = 0, 0, ""
}

// snapshot renders the shadow as the install-ready state for term.
func (sh *shadow) snapshot(term uint64) lockd.ReplState {
	st := lockd.ReplState{Term: term, LastSession: sh.lastSession}
	ids := make([]uint64, 0, len(sh.sessions))
	for id := range sh.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := sh.sessions[id]
		held := make(map[string]uint64, len(s.held))
		for n, t := range s.held {
			held[n] = t
		}
		st.Sessions = append(st.Sessions, lockd.ReplSession{
			ID: id, Client: s.client, Lease: s.lease, Held: held,
		})
	}
	names := make([]string, 0, len(sh.locks))
	for n := range sh.locks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		lk := sh.locks[name]
		st.Locks = append(st.Locks, lockd.ReplLock{
			Name:          name,
			Fence:         lk.fence,
			HolderSession: lk.holderSession,
			HolderToken:   lk.holderToken,
			Holder:        lk.holder,
			Policy:        lk.policy,
			Sched:         lk.sched,
		})
	}
	return st
}

// render returns mutations that rebuild sh when applied in order to an
// empty shadow: the snapshot a learner installs, in the log's own
// vocabulary. Each live session gets a session-open (and a last session
// id no longer live an open and an end); each lock gets a release
// carrying its token floor, its holder's acquire, which also restores
// the holder session's held set, and a reconfig for its policy and
// scheduler.
func (sh *shadow) render() []lockd.Mutation {
	st := sh.snapshot(0)
	out := make([]lockd.Mutation, 0, len(st.Sessions)+2*len(st.Locks)+2)
	lastLive := false
	for _, s := range st.Sessions {
		out = append(out, lockd.Mutation{Kind: journal.KindSessionOpen, Session: s.ID, Agent: s.Client, DurNs: int64(s.Lease)})
		lastLive = lastLive || s.ID == st.LastSession
	}
	if st.LastSession != 0 && !lastLive {
		out = append(out,
			lockd.Mutation{Kind: journal.KindSessionOpen, Session: st.LastSession},
			lockd.Mutation{Kind: journal.KindSessionEnd, Session: st.LastSession})
	}
	for _, lk := range st.Locks {
		out = append(out, lockd.Mutation{Kind: journal.KindRelease, Lock: lk.Name, Token: lk.Fence})
		if lk.HolderSession != 0 || lk.HolderToken != 0 || lk.Holder != "" {
			out = append(out, lockd.Mutation{Kind: journal.KindAcquire, Lock: lk.Name,
				Agent: lk.Holder, Session: lk.HolderSession, Token: lk.HolderToken})
		}
		if lk.Policy != "" || lk.Sched != "" {
			out = append(out, lockd.Mutation{Kind: journal.KindReconfig, Lock: lk.Name, Policy: lk.Policy, Sched: lk.Sched})
		}
	}
	return out
}

// replayShadow builds a new shadow: a copy of base plus the log entries
// after it.
func replayShadow(base *shadow, tail []logEntry) *shadow {
	sh := newShadow()
	for _, m := range base.render() {
		sh.apply(m)
	}
	for _, e := range tail {
		sh.apply(e.m)
	}
	return sh
}
