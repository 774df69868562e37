package arena

// SlabsMade returns how many slabs the process's arenas have made, for
// the external tests that count a store's slabs.
func SlabsMade() int64 { return slabsMade.Load() }
