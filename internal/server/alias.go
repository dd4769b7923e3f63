package server

import (
	"crypto/sha256"
	"sync"
)

// maxAliasName is the longest job name an alias keeps. A job with a
// longer name is still served, only never from its digest, so the table
// holds at most entries × (maxAliasName + a fixed ~200 bytes) however
// large the bodies behind it were.
const maxAliasName = 256

// alias is what a /v1/schedule body was answered with the last time it
// took the full path: everything the response needs besides the stored
// result. Scheduling is deterministic and the server's default battery
// is fixed at New, so the same body always decodes to the same job and
// therefore to the same key, name and battery kind.
type alias struct {
	key  string // cache.Key of the decoded job
	name string // the job's name, echoed in the response
	kind int    // index into specKinds, for the model_kinds counter
}

// aliases is a bounded table from the SHA-256 of a request body to its
// alias, safe for concurrent use. It holds digests only — no body bytes,
// no graphs — and at most as many entries as the result cache: when
// full, a new digest replaces the oldest one recorded.
type aliases struct {
	mu     sync.Mutex
	m      map[[sha256.Size]byte]alias
	oldest [][sha256.Size]byte // ring of recorded digests in insertion order
	next   int                 // the ring slot the next new digest takes
}

func newAliases(max int) *aliases {
	return &aliases{
		m:      make(map[[sha256.Size]byte]alias, max),
		oldest: make([][sha256.Size]byte, 0, max),
	}
}

// get returns the alias recorded for digest.
func (t *aliases) get(digest [sha256.Size]byte) (alias, bool) {
	t.mu.Lock()
	a, ok := t.m[digest]
	t.mu.Unlock()
	return a, ok
}

// put records a for digest, replacing the oldest digest when the table
// is full. A name longer than maxAliasName is not recorded.
func (t *aliases) put(digest [sha256.Size]byte, a alias) {
	if len(a.name) > maxAliasName {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[digest]; !ok {
		if len(t.oldest) < cap(t.oldest) {
			t.oldest = append(t.oldest, digest)
		} else {
			delete(t.m, t.oldest[t.next])
			t.oldest[t.next] = digest
			t.next = (t.next + 1) % len(t.oldest)
		}
	}
	t.m[digest] = a
}
