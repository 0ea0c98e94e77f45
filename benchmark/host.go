package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostInfo is the fingerprint a results file carries, so that two files
// measured on different machines or toolchains are not compared blindly.
type hostInfo struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		GitSHA: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	// Not every checkout is a git repository; the sha is then unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// differs lists the fingerprint fields in which two hosts differ.
func (h hostInfo) differs(o hostInfo) []string {
	var d []string
	if h.CPUModel != o.CPUModel {
		d = append(d, "CPU model")
	}
	if h.NProc != o.NProc {
		d = append(d, "nproc")
	}
	if h.GOMAXPROCS != o.GOMAXPROCS {
		d = append(d, "GOMAXPROCS")
	}
	if h.GoVersion != o.GoVersion {
		d = append(d, "Go version")
	}
	return d
}
