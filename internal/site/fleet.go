package site

import (
	"obiwan/internal/fleet"
	"obiwan/internal/transport"
)

// WithFleet makes this site a fleet observatory: it runs a
// fleet.Collector that scrapes the admin service of every listed peer
// over RMI, serves the aggregated fleet view (and per-site breakdowns),
// the watchdog's alerts, the fleet's slow traces and its attribution
// profile as one chunk through this site's own admin Fleet endpoint —
// what `obiwan-admin fleet top|alerts|slow|attribution` read — and
// evaluates the SLO watchdog rules on every scrape, recording violations
// in this site's flight recorder. Extra fleet options tune the rule set.
//
// The collector is pull-based: nothing is scraped until ScrapeOnce or the
// Fleet endpoint with refresh runs. Sites not listed — and sites built
// without this option — carry no collector machinery at all, keeping the
// disabled path at baseline.
func WithFleet(peers []transport.Addr, opts ...fleet.Option) Option {
	return func(o *options) {
		o.fleetPeers = peers
		o.fleetOpts = opts
	}
}

// Fleet returns the site's collector, or nil when not built WithFleet.
func (s *Site) Fleet() *fleet.Collector { return s.fleet }
