package serve

import (
	"fmt"
	"sync"
)

// Admission control: a tenant is a budget.
//
// Every query and update session the daemon runs costs real internal
// memory — the session Space's M-word cache (the graph's
// Options.MemoryWords) — and the admission controller meters exactly
// that unit per tenant: at most MaxSessions concurrent sessions and at
// most MaxMemoryWords total M-words outstanding. Work beyond either cap
// is rejected immediately (the handler answers 429) instead of queueing,
// so one tenant saturating its budget cannot delay another tenant's
// admissions; budgets are independent, and the underlying handle runs
// all admitted sessions concurrently (PR 4's shared-core isolation).

// errOverBudget is the admission failure; the handler maps it to 429.
type errOverBudget struct {
	tenant string
	what   string
}

func (e errOverBudget) Error() string {
	return fmt.Sprintf("tenant %q over %s budget", e.tenant, e.what)
}

// admission tracks per-tenant budgets and cumulative usage statistics,
// one TenantStats per tenant (the live budget is its ActiveSessions and
// ActiveMemoryWords), guarded by mu. A zero cap means unlimited.
type admission struct {
	maxSessions int
	maxWords    int64

	mu      sync.Mutex
	tenants map[string]*TenantStats
}

func newAdmission(maxSessions int, maxWords int64) *admission {
	return &admission{
		maxSessions: maxSessions,
		maxWords:    maxWords,
		tenants:     map[string]*TenantStats{},
	}
}

func (a *admission) state(tenant string) *TenantStats {
	st := a.tenants[tenant]
	if st == nil {
		st = &TenantStats{}
		a.tenants[tenant] = st
	}
	return st
}

// acquire admits one session of `words` M-words for tenant, returning
// the release closure, or an errOverBudget when either cap would be
// exceeded. Release is idempotent.
func (a *admission) acquire(tenant string, words int64) (func(), error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tenant)
	if a.maxSessions > 0 && st.ActiveSessions+1 > a.maxSessions {
		st.Rejected++
		return nil, errOverBudget{tenant, "session"}
	}
	if a.maxWords > 0 && st.ActiveMemoryWords+words > a.maxWords {
		st.Rejected++
		return nil, errOverBudget{tenant, "memory"}
	}
	st.ActiveSessions++
	st.ActiveMemoryWords += words
	st.Admitted++
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			st.ActiveSessions--
			st.ActiveMemoryWords -= words
			a.mu.Unlock()
		})
	}, nil
}

// recordQuery folds a completed query's deterministic statistics into
// the tenant's counters.
func (a *admission) recordQuery(tenant string, emissions, reads, writes, bytes uint64) {
	a.mu.Lock()
	st := a.state(tenant)
	st.Queries++
	st.Emissions += emissions
	st.BlockReads += reads
	st.BlockWrites += writes
	st.BytesStreamed += bytes
	a.mu.Unlock()
}

// recordUpdate folds a completed update's merge cost into the tenant's
// counters.
func (a *admission) recordUpdate(tenant string, mergeIOs uint64) {
	a.mu.Lock()
	st := a.state(tenant)
	st.Updates++
	st.UpdateIOs += mergeIOs
	a.mu.Unlock()
}

// snapshot copies every tenant seen so far, for /v1/stats. Map iteration
// order does not leak: the JSON encoder sorts map keys.
func (a *admission) snapshot() map[string]TenantStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]TenantStats, len(a.tenants))
	for name, st := range a.tenants {
		out[name] = *st
	}
	return out
}
