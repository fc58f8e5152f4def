//go:build race

package core

// raceBuild: under the race detector sync.Pool drops what it is handed,
// so an allocation bound has to leave room for the images that come back
// as new ones.
const raceBuild = true
