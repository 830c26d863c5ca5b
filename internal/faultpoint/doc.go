// Package faultpoint provides named, runtime-armed fault-injection
// points for the serving stack's chaos suite. Each injection site in
// production code is a Point from the compiled-in catalog (detector
// panic, fused-batch leader crash, engine round stall, slow HTTP
// handler); the sites are permanently compiled in but cost exactly one
// atomic load while disarmed, so they are safe on every hot path. Arming
// happens explicitly — `cycleserved -fault spec`, or faultpoint.Set in
// tests such as the service's TestChaosReplayByteIdentity — and is
// deterministic: a point fires on every Nth pass through its site
// (optionally at most M times), so chaos replays are reproducible and CI
// gates can assert exact interleavings survived. Panic points feed the
// recover fences in internal/congest, internal/sched and
// internal/service; stall points exercise deadline admission and
// client-side cancellation without altering any transcript (sleeps spend
// wall-clock, never randomness).
package faultpoint
