//go:build race

package httpapi

func init() { differentialMantissas /= 50 }
