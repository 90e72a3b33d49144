"""OpenMB core: state taxonomy, southbound and northbound APIs, and the MB controller."""

from ..runtime.arq import ScriptedFault
from .channel import ControlChannel, FaultPlan, FaultProfile
from .config import HierarchicalConfig
from .controller import ControllerConfig, MBController
from .errors import (
    ConfigError,
    GranularityError,
    InstanceDeadError,
    MiddleboxError,
    NetworkError,
    OpenMBError,
    OperationAbortedError,
    OperationError,
    PatternError,
    ProtocolError,
    SealError,
    SimulationError,
    SpecError,
    StateError,
    TransactionAbortedError,
    TransactionError,
    UnknownMiddleboxError,
    ValidationError,
)
from .events import Event, EventCode, EventFilter
from .flowspace import FlowKey, FlowPattern, IPv4Prefix
from .northbound import NorthboundAPI
from .operations import OperationHandle, OperationRecord, OperationType
from .sharding import ControllerShard, ShardCoordinator, ShardRing
from .southbound import ProcessingCosts, SouthboundAgent
from .state import (
    AccessMode,
    PerFlowStateStore,
    SharedStateSlot,
    StateChunk,
    StateRole,
    StateScope,
    state_class,
)
from .stats import ControllerStats
from .transaction import StepRecord, StepStatus, Transaction, TransactionHandle
from .transfer import TransferGuarantee, TransferMode, TransferSpec

__all__ = [
    "ControlChannel",
    "FaultPlan",
    "FaultProfile",
    "ScriptedFault",
    "InstanceDeadError",
    "HierarchicalConfig",
    "ControllerConfig",
    "MBController",
    "NorthboundAPI",
    "Event",
    "EventCode",
    "EventFilter",
    "FlowKey",
    "FlowPattern",
    "IPv4Prefix",
    "OperationHandle",
    "OperationRecord",
    "OperationType",
    "ProcessingCosts",
    "SouthboundAgent",
    "ControllerShard",
    "ShardCoordinator",
    "ShardRing",
    "AccessMode",
    "PerFlowStateStore",
    "SharedStateSlot",
    "StateChunk",
    "StateRole",
    "StateScope",
    "state_class",
    "ControllerStats",
    "StepRecord",
    "StepStatus",
    "Transaction",
    "TransactionHandle",
    "TransferGuarantee",
    "TransferMode",
    "TransferSpec",
    "OpenMBError",
    "StateError",
    "GranularityError",
    "ConfigError",
    "SealError",
    "ProtocolError",
    "OperationError",
    "OperationAbortedError",
    "MiddleboxError",
    "UnknownMiddleboxError",
    "NetworkError",
    "SimulationError",
    "ValidationError",
    "PatternError",
    "SpecError",
    "TransactionError",
    "TransactionAbortedError",
]
