package telemetry

import (
	"runtime"
	"runtime/debug"
	"strconv"
)

// BuildInfo identifies the running binary: the module version (or VCS
// revision) baked in by the Go linker, the toolchain, and GOMAXPROCS.
type BuildInfo struct {
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// ReadBuildInfo collects the binary's build identity. Version falls back
// to "devel" when the binary was not built from a versioned module and
// carries no VCS stamp (e.g. `go test` binaries).
func ReadBuildInfo() BuildInfo {
	bi := BuildInfo{
		Version:    "devel",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		bi.Version = v
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			bi.Version = s.Value[:12]
		}
	}
	return bi
}

// RegisterBuildInfo publishes the idxflow_build_info gauge: constant 1
// with the binary's identity as labels, the conventional way to make
// version visible at /metrics without a dedicated endpoint.
func RegisterBuildInfo(r *Registry) {
	if r == nil {
		return
	}
	bi := ReadBuildInfo()
	r.GaugeVec("idxflow_build_info",
		"Build identity of the running binary (constant 1; identity in labels).",
		"version", "go_version", "gomaxprocs").
		With(bi.Version, bi.GoVersion, strconv.Itoa(bi.GOMAXPROCS)).Set(1)
}
