package admin

import (
	"errors"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// This file is the telemetry read path of the admin service: the one
// cursor-based scrape endpoint that fleet collectors, watchers and the
// obiwan-admin views (metrics, trace, top, watch, slow) all pull from,
// and the one fleet endpoint a collector-bearing site answers with. The
// scrape rides the same well-known export as the rest of the admin
// service, so a collector can address any site knowing only its
// transport address.

// WellKnownID is the object id every site exports its admin service at
// (after the invalidation sink at 1 and the update sink at 2).
const WellKnownID rmi.ObjID = 3

// Ref builds the reference to the admin service of the site at addr.
func Ref(addr transport.Addr) rmi.RemoteRef {
	return rmi.RemoteRef{Addr: addr, ID: WellKnownID}
}

// CursorEnd is a cursor past every span a site will ever commit: a
// scrape from it carries metrics and profile but no spans.
const CursorEnd = ^uint64(0)

// ScrapeChunk is one federation pull from a site: the full metrics
// registry, the top-K hot-object profile, and the spans finished since
// the scraper's cursor. Counters are monotonic and the cursor counts
// spans ever committed, so a collector that loses a chunk (or restarts)
// resumes without double-counting — it just feeds NextCursor back in.
type ScrapeChunk struct {
	Site       string
	TakenAtNS  int64
	NextCursor uint64
	// Missed counts spans evicted from the ring before this scraper
	// could read them (the scrape interval is too long for the site's
	// span rate).
	Missed  uint64
	Metrics *telemetry.MetricsSnapshot
	Profile *telemetry.ProfileSnapshot
	Spans   []telemetry.SpanRecord
}

// FleetChunk is one read of a collector-bearing site's fleet state: the
// aggregated snapshot, the watchdog's alert backlog, the fleet's ranked
// slow traces and its critical-path attribution profile. The obiwan-admin
// fleet views (top, alerts, slow, attribution) are client-side views of it.
type FleetChunk struct {
	Site      string
	TakenAtNS int64
	// Snapshot is the aggregate of the most recent scrape round (nil when
	// the collector has not scraped yet).
	Snapshot *telemetry.FleetSnapshot
	// Dropped counts alerts the bounded backlog has evicted since the
	// collector started — nonzero means Alerts is a window, not the
	// history.
	Dropped     uint64
	Alerts      []telemetry.Alert
	Slow        []telemetry.SlowTrace
	Attribution *telemetry.AttributionProfile
}

func init() {
	codec.MustRegister("obiwan.admin.ScrapeChunk", ScrapeChunk{})
	codec.MustRegister("obiwan.admin.FleetChunk", FleetChunk{})
}

// ErrNoFleet is returned by the fleet endpoint of a site that runs no
// collector.
var ErrNoFleet = errors.New("admin: no fleet collector at this site")

// FleetSource is what a collector exposes through the admin service. It
// lives here (not in the fleet package) so the admin service can serve
// fleet state without importing its producer.
type FleetSource interface {
	// Fleet builds one chunk (Site and TakenAtNS left for the service to
	// stamp). With refresh set the source scrapes its peers first;
	// otherwise it serves the state the most recent scrape assembled. At
	// most maxSlow slow traces (all when maxSlow <= 0).
	Fleet(refresh bool, maxSlow int) *FleetChunk
}

// Scrape returns one federation chunk: metrics, the topK hottest object
// profiles (0: server default of 16), and up to maxSpans spans finished
// since cursor (0: server default of 256). With telemetry off the chunk
// is empty but the call succeeds, so a collector can tell "telemetry
// disabled" apart from "site unreachable".
func (s *Service) Scrape(cursor uint64, maxSpans uint64, topK uint64) *ScrapeChunk {
	if maxSpans == 0 {
		maxSpans = 256
	}
	if topK == 0 {
		topK = 16
	}
	spans, next, missed := s.tel.SpansSince(cursor, int(maxSpans))
	now := s.rt.Clock().Now()
	return &ScrapeChunk{
		Site:       s.name,
		TakenAtNS:  now.UnixNano(),
		NextCursor: next,
		Missed:     missed,
		Metrics:    s.tel.MetricsSnapshot(now),
		Profile:    s.tel.ProfileSnapshot(int(topK), now),
		Spans:      spans,
	}
}

// Fleet returns this site's collector's view of the fleet (ErrNoFleet
// when it runs none): refresh forces a fresh scrape of every peer before
// answering, and maxSlow bounds the ranked slow traces (0: 8).
func (s *Service) Fleet(refresh bool, maxSlow uint64) (*FleetChunk, error) {
	if s.fleet == nil {
		return nil, ErrNoFleet
	}
	if maxSlow == 0 {
		maxSlow = 8
	}
	chunk := s.fleet.Fleet(refresh, int(maxSlow))
	chunk.Site, chunk.TakenAtNS = s.name, s.rt.Clock().Now().UnixNano()
	return chunk, nil
}

// Scrape fetches one federation chunk from the remote site.
func (c *Client) Scrape(cursor uint64, maxSpans uint64, topK uint64) (*ScrapeChunk, error) {
	res, err := c.call("Scrape", cursor, maxSpans, topK)
	if err != nil {
		return nil, err
	}
	chunk, ok := res[0].(*ScrapeChunk)
	if !ok {
		return nil, errUnexpected(res[0])
	}
	return chunk, nil
}

// Fleet fetches the remote site's fleet chunk.
func (c *Client) Fleet(refresh bool, maxSlow uint64) (*FleetChunk, error) {
	res, err := c.call("Fleet", refresh, maxSlow)
	if err != nil {
		return nil, err
	}
	chunk, ok := res[0].(*FleetChunk)
	if !ok {
		return nil, errUnexpected(res[0])
	}
	return chunk, nil
}

// drainPage is how many spans Drain asks for per round trip: the default
// span ring, so an idle site drains in one call plus the empty one.
const drainPage = 4096

// Drain scrapes from cursor 0 until the cursor stops advancing and
// returns the last chunk (the freshest metrics and topK profile) with
// every span the site retains, oldest first, and the evictions summed.
func (c *Client) Drain(topK uint64) (*ScrapeChunk, error) {
	var spans []telemetry.SpanRecord
	var cursor, missed uint64
	for {
		chunk, err := c.Scrape(cursor, drainPage, topK)
		if err != nil {
			return nil, err
		}
		spans = append(spans, chunk.Spans...)
		missed += chunk.Missed
		if chunk.NextCursor <= cursor {
			chunk.Spans, chunk.Missed = spans, missed
			return chunk, nil
		}
		cursor = chunk.NextCursor
	}
}

// Subscribe scrapes every interval on the runtime's clock, invoking fn
// with each chunk (or transport error — delivery resumes when the link
// heals, without duplicating spans, because the cursor only advances on
// success). It returns when stop closes or fn returns a non-nil error,
// which is also Subscribe's return value. The first chunk is fetched
// immediately.
func (c *Client) Subscribe(interval time.Duration, stop <-chan struct{}, fn func(*ScrapeChunk, error) error) error {
	if interval <= 0 {
		interval = time.Second
	}
	clock := c.rt.Clock()
	var cursor uint64
	for {
		chunk, err := c.Scrape(cursor, 0, 0)
		if err == nil {
			cursor = chunk.NextCursor
		}
		if ferr := fn(chunk, err); ferr != nil {
			return ferr
		}
		if !clock.SleepUntilCancel(clock.Now().Add(interval), stop) {
			return nil
		}
	}
}
