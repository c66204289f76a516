package mgs

import (
	"io"

	"mgs/internal/fault"
	"mgs/internal/obs"
	"mgs/internal/stats"
)

// This file is the public face of the observability spine and the
// fault-injection machinery (internal/obs, internal/fault), so that
// programs using the mgs package — examples/chaostrace is one — can
// trace, meter, profile, and chaos-test a machine without reaching into
// internal packages.

// Observer is the observability spine of one machine: a structured
// trace bus with pluggable sinks, a metrics registry, and an optional
// cycle-attribution profiler. Build one with NewObserver, attach it
// with WithObserver, and read it after the run. A nil *Observer means
// "observability off" and costs nothing.
type Observer = obs.Observer

// NewObserver returns an observer with a fresh metrics registry, no
// trace sinks, and profiling off:
//
//	obsv := mgs.NewObserver().AddSink(mgs.NewTextSink(os.Stdout))
//	cfg := mgs.NewConfig(8, 2, mgs.WithObserver(obsv))
func NewObserver() *Observer { return obs.New() }

// Event is one typed trace event: a protocol transition, transport
// fate, synchronization operation, or engine handshake, timestamped in
// virtual cycles.
type Event = obs.Event

// Sink consumes trace events. TextSink, ChromeSink, MemSink, and
// FuncSink are the stock implementations; FilterSink narrows a stream.
type Sink = obs.Sink

// FuncSink adapts a plain function to the Sink interface.
type FuncSink = obs.FuncSink

// TextSink renders events as the classic one-line-per-event text log.
type TextSink = obs.TextSink

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink { return obs.NewTextSink(w) }

// ChromeSink buffers events and renders Chrome trace_event JSON for
// chrome://tracing or Perfetto: one track per processor plus one per
// software engine, timestamped in virtual cycles.
type ChromeSink = obs.ChromeSink

// NewChromeSink returns a Chrome trace sink for a machine of nprocs
// processors. After the run, render with WriteTo.
func NewChromeSink(nprocs int) *ChromeSink { return obs.NewChromeSink(nprocs) }

// MemSink buffers events in memory for post-processing.
type MemSink = obs.MemSink

// FilterSink wraps a sink so only events satisfying keep reach it.
func FilterSink(inner Sink, keep func(Event) bool) Sink { return obs.Filter(inner, keep) }

// EventCat classifies trace events; Event.Cat holds one of
// CatProtocol, CatTransport, CatSync, or CatEngine.
type EventCat = obs.Cat

// Event categories.
const (
	CatProtocol  EventCat = obs.Protocol  // page protocol transitions
	CatTransport EventCat = obs.Transport // transport fates (drops, retransmits, acks)
	CatSync      EventCat = obs.Sync      // lock and barrier operations
	CatEngine    EventCat = obs.Engine    // software engine handshakes
)

// ObjKind classifies the object a trace event or profiler sample is
// about: a page, a lock, a barrier, or nothing.
type ObjKind = obs.ObjKind

// Object kinds.
const (
	ObjNone    ObjKind = obs.ObjNone
	ObjPage    ObjKind = obs.ObjPage
	ObjLock    ObjKind = obs.ObjLock
	ObjBarrier ObjKind = obs.ObjBarrier
)

// Metric is one snapshot entry from an observer's metrics registry:
// a counter, a gauge, or a virtual-time histogram.
type Metric = obs.Metric

// Profiler attributes every simulated cycle to a (processor,
// component, object) key. Arm it with Observer.EnableProfiling before
// building the machine; read it with Observer.Profiler after the run.
type Profiler = obs.Profiler

// ProfSample is one nonzero profiler cell.
type ProfSample = obs.Sample

// HeatLine is one object's aggregate cycle cost across all processors
// (Profiler.Heat).
type HeatLine = obs.HeatLine

// FaultPlan is a deterministic fault schedule for inter-SSMP messages:
// seeded pseudo-random drops, duplications, and delays in basis
// points. The zero value injects nothing and is the identity. Attach
// with WithFaultPlan.
type FaultPlan = fault.Plan

// DefaultMaxDelay is the extra-latency bound used when
// FaultPlan.MaxDelay is zero.
const DefaultMaxDelay Time = fault.DefaultMaxDelay

// FaultStats is the fault-injection transport's accounting view,
// reported in Result.Fault (all zeros on fault-free runs).
type FaultStats = stats.Fault

// Category is one runtime component of the paper's breakdown figures:
// User, Lock, Barrier, or MGS. Profiler component ordinals index these.
type Category = stats.Category

// Runtime components.
const (
	User          Category = stats.User
	LockTime      Category = stats.Lock
	BarrierTime   Category = stats.Barrier
	MGSTime       Category = stats.MGS
	NumCategories Category = stats.NumCategories
)
