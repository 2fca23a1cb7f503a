package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Manager hosts many independent sessions in one process: create, look
// up, recover, and close them. Each session is fully isolated — its own
// backend, mailbox, WAL file, and view — so tenants never contend except
// on the manager's registry lock (taken only for create/lookup/close,
// never on the apply or read paths).
type Manager struct {
	dir string // WAL root; "" disables durability
	mx  *Metrics

	mu       sync.RWMutex
	sessions map[string]*Session
	replicas map[string]*Replica
}

// NewManager returns a manager whose sessions persist their WALs under
// dir ("" disables durability). The directory is created on first use.
func NewManager(dir string) *Manager {
	return &Manager{dir: dir, sessions: make(map[string]*Session), replicas: make(map[string]*Replica)}
}

// Instrument attaches an observability bundle: every session and
// replica created (or recovered, or promoted) after the call registers
// its metric children and trace ring there. Call once, before session
// traffic; a nil bundle (the default) leaves every instrumentation
// point a no-op.
func (m *Manager) Instrument(mx *Metrics) { m.mx = mx }

// ErrSessionExists rejects creating a session whose ID is taken.
var ErrSessionExists = errors.New("serve: session already exists")

// ErrNoSession rejects operations on an unknown session ID.
var ErrNoSession = errors.New("serve: no such session")

func validID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("serve: invalid session id %q", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: invalid session id %q", id)
		}
	}
	return nil
}

// walPath resolves a session's WAL location and makes sure the root
// exists; "" (with no error) means durability is disabled.
func (m *Manager) walPath(id string) (string, error) {
	if m.dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return "", err
	}
	return m.WALDir(id)
}

// WALDir returns the directory a session's (or replica's) segmented
// WAL lives in, without creating anything. It is the single source of
// the manager's on-disk layout and the path WAL shipping tails
// (TailWAL).
func (m *Manager) WALDir(id string) (string, error) {
	if err := validID(id); err != nil {
		return "", err
	}
	if m.dir == "" {
		return "", errors.New("serve: manager has no WAL directory")
	}
	return filepath.Join(m.dir, id+".wal"), nil
}

// Create starts a fresh session. Any existing WAL for the ID is
// truncated.
func (m *Manager) Create(id string, cfg Config) (*Session, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; ok {
		return nil, ErrSessionExists
	}
	if _, ok := m.replicas[id]; ok {
		return nil, ErrReplicaExists
	}
	path, err := m.walPath(id)
	if err != nil {
		return nil, err
	}
	cfg.metrics = m.mx
	s, err := newSession(id, cfg, path)
	if err != nil {
		return nil, err
	}
	m.sessions[id] = s
	return s, nil
}

// Open recovers a session from its WAL (crash recovery or a process
// restart): the snapshot restores state directly and the committed event
// tail replays through the normal recoding path, yielding the exact
// pre-crash state. cfg must name the same strategies the WAL was written
// with.
func (m *Manager) Open(id string, cfg Config) (*Session, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	if m.dir == "" {
		return nil, fmt.Errorf("serve: manager has no WAL directory to open %q from", id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; ok {
		return nil, ErrSessionExists
	}
	if _, ok := m.replicas[id]; ok {
		return nil, ErrReplicaExists
	}
	path, err := m.walPath(id)
	if err != nil {
		return nil, err
	}
	cfg.metrics = m.mx
	s, err := restoreSession(id, cfg, path)
	if err != nil {
		return nil, err
	}
	m.sessions[id] = s
	return s, nil
}

// Get returns a live session.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.sessions[id]
	return s, ok
}

// List returns the live session IDs, ascending.
func (m *Manager) List() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Close gracefully stops one session (final snapshot + WAL compaction)
// and removes it from the registry.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return ErrNoSession
	}
	err := s.Close()
	// The session is out of the registry either way: drop its trace
	// ring so the hub does not grow one per session ever hosted.
	m.mx.evictTrace(id)
	return err
}

// CloseAll stops every session and replica, returning the first error.
func (m *Manager) CloseAll() error {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	rs := make([]*Replica, 0, len(m.replicas))
	for _, r := range m.replicas {
		rs = append(rs, r)
	}
	m.sessions = make(map[string]*Session)
	m.replicas = make(map[string]*Replica)
	m.mu.Unlock()
	var first error
	for _, s := range ss {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, r := range rs {
		if err := r.close(false); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Abort simulates a process crash: every session and replica stops
// where it is and its WAL keeps only what earlier group commits (and
// acked replica fsyncs) pushed to the OS — no final flush, snapshot, or
// fsync. The failover tests kill primaries with it.
func (m *Manager) Abort() {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	rs := make([]*Replica, 0, len(m.replicas))
	for _, r := range m.replicas {
		rs = append(rs, r)
	}
	m.sessions = make(map[string]*Session)
	m.replicas = make(map[string]*Replica)
	m.mu.Unlock()
	for _, s := range ss {
		s.abortForTest()
	}
	for _, r := range rs {
		r.close(true)
	}
}
