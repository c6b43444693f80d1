package core

import "carac/internal/plancache"

// LimitPlanStore gives p a fresh unit store bounded to limit entries, for
// tests that need the store to evict.
func LimitPlanStore(p *Program, limit int) { p.planStore = plancache.NewStore(limit) }
