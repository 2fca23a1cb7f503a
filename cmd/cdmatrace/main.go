// Command cdmatrace renders a session's merged cross-member timeline:
// it polls any member's GET /cluster/trace/{session} — the collector
// that fans out to the session's owner set and merges every member's
// flight-recorder ring — and draws one waterfall per sequence number
// plus the per-stage latency profile.
//
// Usage:
//
//	cdmatrace -session game [-addr 127.0.0.1:8080] [-since 0]
//	          [-interval 2s] [-once] [-tail 8]
//
// -once renders a single frame to stdout with no escape codes and
// exits — scriptable (CI smoke checks); the exit code is nonzero when
// the member cannot be reached. -since narrows the fetch to sequence
// numbers >= N (the slow-event workflow: /debug/slowest names a slow
// seq, cdmatrace -since fetches its timeline). -tail bounds how many of the
// newest events are drawn per frame.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "any fleet member's address")
		session  = flag.String("session", "", "session to trace (required)")
		since    = flag.Int64("since", 0, "only sequence numbers >= this (0 = whole ring)")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render one frame and exit (no escape codes)")
		tail     = flag.Int("tail", 8, "newest events to draw per frame")
	)
	flag.Parse()
	if *session == "" {
		fmt.Fprintln(os.Stderr, "cdmatrace: -session is required")
		os.Exit(2)
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}

	frame := func() error {
		tm, err := fetch(client, base, *session, *since)
		if err != nil {
			return err
		}
		render(os.Stdout, *addr, tm, *tail)
		return nil
	}

	if *once {
		if err := frame(); err != nil {
			fmt.Fprintf(os.Stderr, "cdmatrace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for {
		// Home + clear-to-end redraw: flicker-free on any ANSI terminal.
		fmt.Print("\x1b[H\x1b[2J")
		if err := frame(); err != nil {
			fmt.Printf("cdmatrace: %v (retrying)\n", err)
		}
		time.Sleep(*interval)
	}
}

// fetch pulls one merged timeline from a member's trace collector.
func fetch(client *http.Client, base, session string, since int64) (*obs.TraceMerge, error) {
	url := base + "/cluster/trace/" + session
	if since != 0 {
		url += "?since_seq=" + strconv.FormatInt(since, 10)
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /cluster/trace/%s: %s", session, resp.Status)
	}
	var tm obs.TraceMerge
	if err := json.NewDecoder(resp.Body).Decode(&tm); err != nil {
		return nil, fmt.Errorf("merged timeline: %w", err)
	}
	return &tm, nil
}
