"""RCCE-style message passing for the simulated SCC.

Mirrors the blocking send/recv + flags model of Intel's RCCE library
the paper programs against ("RCCE-2.0 for our MPI implementation").
"""

from .comm import Message, RCCEComm
from .flags import FlagAllocator, FlagVariable

__all__ = ["RCCEComm", "Message", "FlagVariable", "FlagAllocator"]
