package server

// PollSupported reports whether this platform has a readiness-poller
// backend (epoll/kqueue); where it is false, Options.Poll keeps the
// goroutine-per-connection model and the poll tests skip.
func PollSupported() bool { return pollSupported }

// PollWorkerCount is the poll-mode service pool size, for the external
// tests that bound a poll server's goroutines.
var PollWorkerCount = pollWorkers
