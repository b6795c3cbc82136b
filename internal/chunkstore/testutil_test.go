package chunkstore

// tinyCacheBytes is a map-node budget small enough to evict map nodes
// constantly, exercising the fault-in paths.
const tinyCacheBytes = 8 << 10
