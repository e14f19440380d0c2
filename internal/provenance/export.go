package provenance

import (
	"bufio"
	"encoding/json"
	"io"

	"idxflow/internal/telemetry"
)

// Header is the first line of a JSONL event log: the format marker, the
// binary's build identity, and how much of the run the ring retained.
// Readers distinguish it from events by the "format" key (events never
// carry one).
type Header struct {
	Format     string `json:"format"` // always FormatName
	Version    string `json:"version,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Total      uint64 `json:"total"`             // events ever appended
	Dropped    uint64 `json:"dropped,omitempty"` // overwritten by ring wrap
}

// FormatName is the value of Header.Format for this log layout.
const FormatName = "idxflow-events/1"

// NewHeader builds the header for this recorder's current contents,
// stamped with the binary's build info.
func (r *Recorder) NewHeader() Header {
	bi := telemetry.ReadBuildInfo()
	return Header{
		Format:     FormatName,
		Version:    bi.Version,
		GoVersion:  bi.GoVersion,
		GOMAXPROCS: bi.GOMAXPROCS,
		Total:      r.Total(),
		Dropped:    r.Dropped(),
	}
}

// WriteJSONL writes a header line followed by one event per line — the
// format served by /debug/events and written by the -events CLI flags.
// An empty recorder still writes the header, so the output is always a
// valid, attributable log.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteLog(w, r.NewHeader(), r.Snapshot())
}

// WriteLog writes an explicit header and event slice as JSONL — the
// filtered-export path (/debug/events), where the events are a subset of a
// recorder's snapshot but the header should still describe the recorder.
func WriteLog(w io.Writer, h Header, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
