package perf

import "calculon/internal/execution"

// SetOnMemoryHalf sets the hook step calls with the mask of every memory
// half a chain runs, for the tests outside the package that count them
// (nil to clear it). It must not change while a chain runs.
func SetOnMemoryHalf(f func(execution.FieldMask)) { onMemoryHalf = f }
