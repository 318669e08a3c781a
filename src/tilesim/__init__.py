"""tilesim: trace-driven simulation of tiled 360-degree video streaming.

Core pieces: sphere/tile geometry and visibility (geometry), linear viewport
prediction (prediction), popularity heat maps and quantization (popularity),
synthetic tiled manifests (manifest), an edge cache with LRU/LFUDA/GDSF
eviction (cachesim), a packet-trace network model (netsim), per-segment
quality selection policies and the transition rule (adaptation), and the
streaming-session event loop plus experiment driver (playback). Import each
module by its name. The entry points are the `tilesim` script and `python -m
tilesim.cli`; see the README for a walkthrough.
"""
