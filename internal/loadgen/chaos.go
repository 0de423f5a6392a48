package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"scalia"
	"scalia/client"
)

// Action is one chaos event type.
type Action string

// The chaos vocabulary: every fault-injection pattern the engine's unit
// harnesses exercise, scripted against a live deployment through the
// admin API.
const (
	// ActionProviderDown injects a transient outage on Provider.
	ActionProviderDown Action = "provider-down"
	// ActionProviderUp clears the outage on Provider.
	ActionProviderUp Action = "provider-up"
	// ActionSetPricing replaces Provider's price sheet with Pricing (a
	// market price event).
	ActionSetPricing Action = "set-pricing"
	// ActionOptimize triggers one optimization round.
	ActionOptimize Action = "optimize"
	// ActionRepair triggers a repair pass (Policy "wait" or "active",
	// default "active").
	ActionRepair Action = "repair"
	// ActionAddProvider registers the provider described by Spec (the
	// CheapStor market-entry scenario).
	ActionAddProvider Action = "add-provider"
	// ActionRemoveProvider deregisters Provider (market exit).
	ActionRemoveProvider Action = "remove-provider"
)

// Duration is a time.Duration that unmarshals from either a Go duration
// string ("12s", "1m30s") or a bare JSON number of seconds.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("loadgen: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	secs, err := strconv.ParseFloat(string(bytes.TrimSpace(b)), 64)
	if err != nil {
		return fmt.Errorf("loadgen: bad duration %s: %w", b, err)
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// MarshalJSON implements json.Marshaler (duration-string form).
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Event is one timestamped chaos event. At is the offset from the start
// of the paced run; which other fields matter depends on Action.
type Event struct {
	At       Duration         `json:"at"`
	Action   Action           `json:"action"`
	Provider string           `json:"provider,omitempty"`
	Pricing  *scalia.Pricing  `json:"pricing,omitempty"`
	Policy   string           `json:"policy,omitempty"`
	Spec     *scalia.Provider `json:"spec,omitempty"`
}

// validate rejects events the executor could not act on, so schedule
// mistakes surface at parse time instead of mid-run.
func (e Event) validate() error {
	if e.At < 0 {
		return fmt.Errorf("negative offset %s", time.Duration(e.At))
	}
	switch e.Action {
	case ActionProviderDown, ActionProviderUp, ActionRemoveProvider:
		if e.Provider == "" {
			return fmt.Errorf("%s requires a provider", e.Action)
		}
	case ActionSetPricing:
		if e.Provider == "" || e.Pricing == nil {
			return fmt.Errorf("%s requires provider and pricing", e.Action)
		}
	case ActionAddProvider:
		if e.Spec == nil {
			return fmt.Errorf("%s requires a spec", e.Action)
		}
	case ActionOptimize:
	case ActionRepair:
		if e.Policy != "" && e.Policy != "wait" && e.Policy != "active" {
			return fmt.Errorf("repair policy %q (want wait or active)", e.Policy)
		}
	default:
		return fmt.Errorf("unknown action %q", e.Action)
	}
	return nil
}

// Schedule is a replayable chaos script: events sorted by offset,
// executed by a scheduler goroutine against the live deployment while
// the load runs.
type Schedule struct {
	Events []Event
}

// ParseSchedule reads a chaos schedule from either a JSON array of
// events or NDJSON (one event object per line; blank lines skipped).
// Events are validated and stably sorted by offset.
func ParseSchedule(r io.Reader) (*Schedule, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var events []Event
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return &Schedule{}, nil
	}
	if trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &events); err != nil {
			return nil, fmt.Errorf("loadgen: bad chaos schedule: %w", err)
		}
	} else {
		for i, line := range bytes.Split(trimmed, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var e Event
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, fmt.Errorf("loadgen: chaos schedule line %d: %w", i+1, err)
			}
			events = append(events, e)
		}
	}
	for i, e := range events {
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("loadgen: chaos event %d: %w", i, err)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Schedule{Events: events}, nil
}

// LoadScheduleFile reads a chaos schedule from disk.
func LoadScheduleFile(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSchedule(f)
}

// ExecutedEvent records one chaos event's execution for the report.
type ExecutedEvent struct {
	AtSeconds float64 `json:"atSeconds"`
	Action    string  `json:"action"`
	Provider  string  `json:"provider,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// run executes the schedule against the deployment, sleeping until each
// event's offset from start. It returns when every event has fired or
// ctx is cancelled (remaining events are dropped — a chaos script
// outliving the load has nothing left to disturb).
func (s *Schedule) run(ctx context.Context, start time.Time, c *client.Client) []ExecutedEvent {
	if s == nil || len(s.Events) == 0 {
		return nil
	}
	executed := make([]ExecutedEvent, 0, len(s.Events))
	for _, e := range s.Events {
		wait := time.Until(start.Add(time.Duration(e.At)))
		if wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return executed
			case <-timer.C:
			}
		}
		rec := ExecutedEvent{
			AtSeconds: time.Since(start).Seconds(),
			Action:    string(e.Action),
			Provider:  e.Provider,
		}
		if err := execute(ctx, c, e); err != nil {
			rec.Error = err.Error()
		}
		executed = append(executed, rec)
	}
	return executed
}

// execute maps one event onto the typed client's admin surface.
func execute(ctx context.Context, c *client.Client, e Event) error {
	switch e.Action {
	case ActionProviderDown, ActionProviderUp:
		_, err := c.SetProviderAvailable(ctx, e.Provider, e.Action == ActionProviderUp)
		return err
	case ActionSetPricing:
		_, err := c.SetProviderPricing(ctx, e.Provider, *e.Pricing)
		return err
	case ActionOptimize:
		// Dispatch-then-poll through the async jobs API: the chaos runner
		// observes the 202 contract end-to-end instead of holding one HTTP
		// request open across the whole pass.
		job, err := c.StartOptimize(ctx)
		if err != nil {
			return err
		}
		_, err = c.WaitForJob(ctx, job.ID, 0)
		return err
	case ActionRepair:
		policy := scalia.RepairActive
		if e.Policy == "wait" {
			policy = scalia.RepairWait
		}
		job, err := c.StartRepair(ctx, policy)
		if err != nil {
			return err
		}
		_, err = c.WaitForJob(ctx, job.ID, 0)
		return err
	case ActionAddProvider:
		return c.AddProvider(ctx, *e.Spec)
	case ActionRemoveProvider:
		return c.RemoveProvider(ctx, e.Provider)
	default:
		return fmt.Errorf("loadgen: unknown action %q", e.Action)
	}
}
