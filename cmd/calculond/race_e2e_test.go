//go:build e2e && race

package main

// Under the race detector, the e2e tests race the daemon they drive too.
func init() { buildFlags = append(buildFlags, "-race") }
