//go:build !linux

package server

const pollSupported = false

// newOSPoller has no backend on this platform, so a reader never parks
// and every connection keeps its goroutine.
func newOSPoller() (osPoller, error) {
	return nil, errPollUnsupported
}
