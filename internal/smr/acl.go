package smr

import (
	"strings"
	"sync"

	"repro/internal/wiki"
)

// ACL implements the privilege model of the Query Interface module: "a user
// may not have a full access to the whole metadata". Grants are per
// namespace; a user with no grants at all falls back to the anonymous
// policy (read-everything by default, lockable).
type ACL struct {
	mu            sync.RWMutex
	grants        map[string]map[wiki.Namespace]bool
	anonReadsAll  bool
	deniedByTitle map[string]map[string]bool // user -> denied canonical titles
}

// NewACL returns an ACL where anonymous users can read everything.
func NewACL() *ACL {
	return &ACL{
		grants:        make(map[string]map[wiki.Namespace]bool),
		anonReadsAll:  true,
		deniedByTitle: make(map[string]map[string]bool),
	}
}

// SetAnonymousAccess toggles the read-everything fallback for users without
// explicit grants.
func (a *ACL) SetAnonymousAccess(allowed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.anonReadsAll = allowed
}

// Grant allows a user to read a namespace. Granting any namespace switches
// the user from the anonymous policy to an explicit allow-list.
func (a *ACL) Grant(user string, ns wiki.Namespace) {
	a.mu.Lock()
	defer a.mu.Unlock()
	set, ok := a.grants[user]
	if !ok {
		set = make(map[wiki.Namespace]bool)
		a.grants[user] = set
	}
	set[ns] = true
}

// DenyPage blocks one specific page for a user regardless of namespace
// grants.
func (a *ACL) DenyPage(user, title string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	canonical := wiki.ParseTitle(title).String()
	set, ok := a.deniedByTitle[user]
	if !ok {
		set = make(map[string]bool)
		a.deniedByTitle[user] = set
	}
	set[canonical] = true
}

// CanRead reports whether the user may see the page.
func (a *ACL) CanRead(user, title string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	canonical := wiki.ParseTitle(title).String()
	if denied, ok := a.deniedByTitle[user]; ok && denied[canonical] {
		return false
	}
	set, ok := a.grants[user]
	if !ok || len(set) == 0 {
		return a.anonReadsAll
	}
	return set[wiki.ParseTitle(title).Namespace]
}

// ReadsAll reports whether CanRead(user, t) is true for every title t: the
// user has no namespace grants, the anonymous policy reads everything, and
// no page is denied to the user. A query checks it once, under one read
// lock, and skips the per-title check when it holds.
func (a *ACL) ReadsAll(user string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.grants[user]) == 0 && a.anonReadsAll && len(a.deniedByTitle[user]) == 0
}

// String describes the policy briefly (used in logs).
func (a *ACL) String() string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var b strings.Builder
	b.WriteString("acl{anon=")
	if a.anonReadsAll {
		b.WriteString("all")
	} else {
		b.WriteString("none")
	}
	b.WriteString("}")
	return b.String()
}
